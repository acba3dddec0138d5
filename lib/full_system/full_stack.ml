open Prelude

module Make (M : Msg_intf.S) = struct
  module Node = Dvs_impl.Vs_to_dvs.Make (M)
  module W = Dvs_impl.Wire.Make (M)
  module Stk = Vs_impl.Stack.Make (Dvs_impl.Wire.Make (M))

  type wire = M.t Dvs_impl.Wire.t
  type packet = wire Vs_impl.Packet.t

  type state = { stk : Stk.state; nodes : Node.state Proc.Map.t }

  type action =
    | Dvs_gpsnd of Proc.t * M.t
    | Dvs_register of Proc.t
    | Dvs_newview of View.t * Proc.t
    | Dvs_gprcv of { src : Proc.t; dst : Proc.t; msg : M.t }
    | Dvs_safe of { src : Proc.t; dst : Proc.t; msg : M.t }
    | Vs_gpsnd of Proc.t * wire
    | Vs_newview of View.t * Proc.t
    | Vs_gprcv of { src : Proc.t; dst : Proc.t; msg : wire }
    | Vs_safe of { src : Proc.t; dst : Proc.t; msg : wire }
    | Garbage_collect of Proc.t * View.t
    | Stk_createview of View.t
    | Stk_reconfigure of Proc.Set.t list
    | Stk_send of { src : Proc.t; dst : Proc.t; pkt : packet }
    | Stk_deliver of { src : Proc.t; dst : Proc.t; pkt : packet }

  let variant = Dvs_impl.Vs_to_dvs.Faithful

  let initial ~universe ~p0 =
    let nodes =
      List.fold_left
        (fun acc p -> Proc.Map.add p (Node.initial ~p0 p) acc)
        Proc.Map.empty
        (List.init universe Fun.id)
    in
    { stk = Stk.initial ~universe ~p0 (); nodes }

  let node s p =
    match Proc.Map.find_opt p s.nodes with
    | Some n -> n
    | None -> invalid_arg "Full_stack.node: unknown process"

  let with_node s p f = { s with nodes = Proc.Map.add p (f (node s p)) s.nodes }

  let enabled s = function
    | Dvs_gpsnd (_, _) | Dvs_register _ -> true
    | Dvs_newview (v, p) -> Node.enabled_v variant (node s p) (Node.Dvs_newview v)
    | Dvs_gprcv { src; dst; msg } ->
        Node.enabled_v variant (node s dst) (Node.Dvs_gprcv (src, msg))
    | Dvs_safe { src; dst; msg } ->
        Node.enabled_v variant (node s dst) (Node.Dvs_safe (src, msg))
    | Vs_gpsnd (p, w) -> Node.enabled_v variant (node s p) (Node.Vs_gpsnd w)
    | Vs_newview (v, p) -> Stk.enabled s.stk (Stk.Newview (v, p))
    | Vs_gprcv { src; dst; msg } -> Stk.enabled s.stk (Stk.Gprcv { src; dst; msg })
    | Vs_safe { src; dst; msg } -> Stk.enabled s.stk (Stk.Safe { src; dst; msg })
    | Garbage_collect (p, v) ->
        Node.enabled_v variant (node s p) (Node.Garbage_collect v)
    | Stk_createview v -> Stk.enabled s.stk (Stk.Createview v)
    | Stk_reconfigure comps -> Stk.enabled s.stk (Stk.Reconfigure comps)
    | Stk_send { src; dst; pkt } -> Stk.enabled s.stk (Stk.Send { src; dst; pkt })
    | Stk_deliver { src; dst; pkt } ->
        Stk.enabled s.stk (Stk.Deliver { src; dst; pkt })

  let step s action =
    match action with
    | Dvs_gpsnd (p, m) -> with_node s p (fun n -> Node.step_v variant n (Node.Dvs_gpsnd m))
    | Dvs_register p -> with_node s p (fun n -> Node.step_v variant n Node.Dvs_register)
    | Dvs_newview (v, p) ->
        with_node s p (fun n -> Node.step_v variant n (Node.Dvs_newview v))
    | Dvs_gprcv { src; dst; msg } ->
        with_node s dst (fun n -> Node.step_v variant n (Node.Dvs_gprcv (src, msg)))
    | Dvs_safe { src; dst; msg } ->
        with_node s dst (fun n -> Node.step_v variant n (Node.Dvs_safe (src, msg)))
    | Vs_gpsnd (p, w) ->
        let s = with_node s p (fun n -> Node.step_v variant n (Node.Vs_gpsnd w)) in
        { s with stk = Stk.step s.stk (Stk.Gpsnd (p, w)) }
    | Vs_newview (v, p) ->
        let s = { s with stk = Stk.step s.stk (Stk.Newview (v, p)) } in
        with_node s p (fun n -> Node.step_v variant n (Node.Vs_newview v))
    | Vs_gprcv { src; dst; msg } ->
        let s = { s with stk = Stk.step s.stk (Stk.Gprcv { src; dst; msg }) } in
        with_node s dst (fun n -> Node.step_v variant n (Node.Vs_gprcv (src, msg)))
    | Vs_safe { src; dst; msg } ->
        let s = { s with stk = Stk.step s.stk (Stk.Safe { src; dst; msg }) } in
        with_node s dst (fun n -> Node.step_v variant n (Node.Vs_safe (src, msg)))
    | Garbage_collect (p, v) ->
        with_node s p (fun n -> Node.step_v variant n (Node.Garbage_collect v))
    | Stk_createview v -> { s with stk = Stk.step s.stk (Stk.Createview v) }
    | Stk_reconfigure comps -> { s with stk = Stk.step s.stk (Stk.Reconfigure comps) }
    | Stk_send { src; dst; pkt } ->
        { s with stk = Stk.step s.stk (Stk.Send { src; dst; pkt }) }
    | Stk_deliver { src; dst; pkt } ->
        { s with stk = Stk.step s.stk (Stk.Deliver { src; dst; pkt }) }

  let is_external = function
    | Dvs_gpsnd _ | Dvs_register _ | Dvs_newview _ | Dvs_gprcv _ | Dvs_safe _ ->
        true
    | Vs_gpsnd _ | Vs_newview _ | Vs_gprcv _ | Vs_safe _ | Garbage_collect _
    | Stk_createview _ | Stk_reconfigure _ | Stk_send _ | Stk_deliver _ ->
        false

  let equal_state a b =
    Stk.equal_state a.stk b.stk && Proc.Map.equal Node.equal_state a.nodes b.nodes

  let pp_state ppf s =
    Format.fprintf ppf "@[<v>%a@ %a@]" Stk.pp_state s.stk
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf (p, n) ->
           Format.fprintf ppf "%a: %a" Proc.pp p Node.pp_state n))
      (Proc.Map.bindings s.nodes)

  (* Canonical full-state rendering — the engine stack's key plus every
     node's — used as the dedup key for exhaustive exploration. *)
  let state_key s =
    let buf = Buffer.create 2048 in
    Stk.key_to_buffer buf s.stk;
    Proc.Map.iter
      (fun p n ->
        Buffer.add_string buf "##";
        Proc.to_buffer buf p;
        Buffer.add_char buf ':';
        Node.key_to_buffer buf n)
      s.nodes;
    Buffer.contents buf

  (* Flat canonical codec — the engine stack (over the DVS wire alphabet)
     plus every node — mirroring [state_key]'s coverage. *)
  let codec_state (m : M.t Check.Codec.f) : state Check.Codec.f =
    let open Check.Codec in
    let stk_c = Stk.codec_state (Dvs_impl.Wire.codec m) in
    let nodes_c = proc_map (Node.codec_state m) in
    {
      wr =
        (fun b s ->
          stk_c.wr b s.stk;
          nodes_c.wr b s.nodes);
      rd =
        (fun r ->
          let stk = stk_c.rd r in
          let nodes = nodes_c.rd r in
          { stk; nodes });
    }

  let pp_action ppf = function
    | Dvs_gpsnd (p, m) -> Format.fprintf ppf "dvs-gpsnd(%a)_%a" M.pp m Proc.pp p
    | Dvs_register p -> Format.fprintf ppf "dvs-register_%a" Proc.pp p
    | Dvs_newview (v, p) ->
        Format.fprintf ppf "dvs-newview(%a)_%a" View.pp v Proc.pp p
    | Dvs_gprcv { src; dst; msg } ->
        Format.fprintf ppf "dvs-gprcv(%a)_%a,%a" M.pp msg Proc.pp src Proc.pp dst
    | Dvs_safe { src; dst; msg } ->
        Format.fprintf ppf "dvs-safe(%a)_%a,%a" M.pp msg Proc.pp src Proc.pp dst
    | Vs_gpsnd (p, w) -> Format.fprintf ppf "[vs-gpsnd(%a)_%a]" W.pp w Proc.pp p
    | Vs_newview (v, p) ->
        Format.fprintf ppf "[vs-newview(%a)_%a]" View.pp v Proc.pp p
    | Vs_gprcv { src; dst; msg } ->
        Format.fprintf ppf "[vs-gprcv(%a)_%a,%a]" W.pp msg Proc.pp src Proc.pp dst
    | Vs_safe { src; dst; msg } ->
        Format.fprintf ppf "[vs-safe(%a)_%a,%a]" W.pp msg Proc.pp src Proc.pp dst
    | Garbage_collect (p, v) ->
        Format.fprintf ppf "[gc(%a)_%a]" View.pp v Proc.pp p
    | Stk_createview v -> Format.fprintf ppf "[stk-createview(%a)]" View.pp v
    | Stk_reconfigure comps ->
        Format.fprintf ppf "[stk-reconfigure(%d)]" (List.length comps)
    | Stk_send { src; dst; pkt } ->
        Format.fprintf ppf "[stk-send %a→%a: %a]" Proc.pp src Proc.pp dst
          (Vs_impl.Packet.pp W.pp) pkt
    | Stk_deliver { src; dst; pkt } ->
        Format.fprintf ppf "[stk-deliver %a→%a: %a]" Proc.pp src Proc.pp dst
          (Vs_impl.Packet.pp W.pp) pkt

  let created s =
    Proc.Map.fold
      (fun _ n acc -> View.Set.union n.Node.attempted acc)
      s.nodes View.Set.empty

  let tot_reg s =
    View.Set.filter
      (fun v ->
        Proc.Set.for_all (fun p -> Node.reg_of (node s p) (View.id v)) (View.set v))
      (created s)

  (* ---------------------------------------------------------------- *)
  (* Generation                                                        *)
  (* ---------------------------------------------------------------- *)

  type config = {
    universe : int;
    p0 : Proc.Set.t;
    payloads : M.t list;
    max_views : int;
    max_sends : int;
    register_probability : float;
  }

  let default_config ~payloads ~universe =
    {
      universe;
      p0 = Proc.Set.universe universe;
      payloads;
      max_views = 4;
      max_sends = 12;
      register_probability = 1.0;
    }

  let latest_settled s =
    match View.Set.max_id s.stk.Stk.daemon.Vs_impl.Daemon.issued with
    | None -> true
    | Some v ->
        Proc.Set.for_all
          (fun p -> not (Vs_impl.Daemon.can_notify s.stk.Stk.daemon v p))
          (View.set v)

  let candidates cfg rng_views rng s =
    let procs = List.init cfg.universe Fun.id in
    let stk = s.stk in
    let split_proposal () =
      let alive = Proc.Set.elements cfg.p0 in
      let left = List.filter (fun _ -> Random.State.bool rng_views) alive in
      let right = List.filter (fun p -> not (List.mem p left)) alive in
      match (left, right) with
      | [], _ | _, [] -> []
      | _ ->
          [ Stk_reconfigure [ Proc.Set.of_list left; Proc.Set.of_list right ] ]
    in
    let merge_proposal () =
      if stk.Stk.net.Stk.N.blocked <> [] then [ Stk_reconfigure [ cfg.p0 ] ]
      else []
    in
    let reconfigs =
      if Random.State.int rng_views 12 <> 0 then []
      else if stk.Stk.net.Stk.N.blocked <> [] then merge_proposal ()
      else split_proposal ()
    in
    let createviews =
      if
        View.Set.cardinal stk.Stk.daemon.Vs_impl.Daemon.issued >= cfg.max_views
        || (not (latest_settled s))
        || Random.State.int rng_views 6 <> 0
      then []
      else
        List.filter_map
          (fun c ->
            match Vs_impl.Daemon.create stk.Stk.daemon c with
            | Some (_, v) -> Some (Stk_createview v)
            | None -> None)
          stk.Stk.daemon.Vs_impl.Daemon.components
    in
    let newviews =
      View.Set.fold
        (fun v acc ->
          Proc.Set.fold
            (fun p acc ->
              if Vs_impl.Daemon.can_notify stk.Stk.daemon v p then
                Vs_newview (v, p) :: acc
              else acc)
            (View.set v) acc)
        stk.Stk.daemon.Vs_impl.Daemon.issued []
    in
    let total_sent =
      Proc.Map.fold
        (fun _ e acc ->
          acc
          + Gid.Map.fold (fun _ q n -> n + Seqs.length q) e.Stk.E.outq 0
          + Gid.Map.fold (fun _ q n -> n + Seqs.length q) e.Stk.E.seq_log 0)
        stk.Stk.engines 0
    in
    let gpsnds =
      if total_sent >= cfg.max_sends || cfg.payloads = [] then []
      else begin
        let m =
          List.nth cfg.payloads (Random.State.int rng (List.length cfg.payloads))
        in
        List.map (fun p -> Dvs_gpsnd (p, m)) procs
      end
    in
    let node_outputs =
      List.concat_map
        (fun p ->
          let n = node s p in
          let vs_sends =
            match n.Node.cur with
            | Some cur -> (
                match Seqs.head_opt (Node.msgs_to_vs_of n (View.id cur)) with
                | Some w -> [ Vs_gpsnd (p, w) ]
                | None -> [])
            | None -> []
          in
          let attempts =
            match n.Node.cur with
            | Some v when enabled s (Dvs_newview (v, p)) -> [ Dvs_newview (v, p) ]
            | Some _ | None -> []
          in
          let registers =
            match n.Node.client_cur with
            | Some cc
              when (not (Node.reg_of n (View.id cc)))
                   && Random.State.float rng 1.0 < cfg.register_probability ->
                [ Dvs_register p ]
            | Some _ | None -> []
          in
          let drains =
            match n.Node.client_cur with
            | None -> []
            | Some cc -> (
                let g = View.id cc in
                let d1 =
                  match Seqs.head_opt (Node.msgs_from_vs_of n g) with
                  | Some (msg, src) -> [ Dvs_gprcv { src; dst = p; msg } ]
                  | None -> []
                in
                let d2 =
                  match Seqs.head_opt (Node.safe_from_vs_of n g) with
                  | Some (msg, src) -> [ Dvs_safe { src; dst = p; msg } ]
                  | None -> []
                in
                d1 @ d2)
          in
          let gcs =
            let known =
              match n.Node.cur with
              | Some c -> View.Set.add c n.Node.amb
              | None -> n.Node.amb
            in
            View.Set.fold
              (fun v acc ->
                if Node.enabled_v variant n (Node.Garbage_collect v) then
                  Garbage_collect (p, v) :: acc
                else acc)
              known []
          in
          vs_sends @ attempts @ registers @ drains @ gcs)
        procs
    in
    let engine_sends =
      List.concat_map
        (fun p ->
          let e = Stk.engine stk p in
          let fwd =
            match Stk.E.fwd_send e with
            | Some (dst, pkt) -> [ Stk_send { src = p; dst; pkt } ]
            | None -> []
          in
          let others =
            List.map
              (fun (dst, pkt) -> Stk_send { src = p; dst; pkt })
              (Stk.E.bcast_sends e @ Stk.E.ack_sends e @ Stk.E.stable_sends e)
          in
          fwd @ others)
        procs
    in
    let delivers =
      Pg_map.fold
        (fun (src, dst) _ acc ->
          match Stk.N.deliverable stk.Stk.net ~src ~dst with
          | Some pkt -> Stk_deliver { src; dst; pkt } :: acc
          | None -> acc)
        stk.Stk.net.Stk.N.channels []
    in
    let vs_outputs =
      List.concat_map
        (fun p ->
          let e = Stk.engine stk p in
          let rcv =
            match Stk.E.deliverable e with
            | Some (src, msg) -> [ Vs_gprcv { src; dst = p; msg } ]
            | None -> []
          in
          let safe =
            match Stk.E.safe_ready e with
            | Some (src, msg) -> [ Vs_safe { src; dst = p; msg } ]
            | None -> []
          in
          rcv @ safe)
        procs
    in
    let base =
      reconfigs @ createviews @ newviews @ gpsnds @ node_outputs @ engine_sends
      @ delivers @ vs_outputs
    in
    if base = [] then merge_proposal () else base

  let generative cfg ~rng_views =
    (module struct
      type nonrec state = state
      type nonrec action = action

      let equal_state = equal_state
      let pp_state = pp_state
      let pp_action = pp_action
      let enabled = enabled
      let step = step
      let is_external = is_external
      let candidates rng s = candidates cfg rng_views rng s
    end : Ioa.Automaton.GENERATIVE
      with type state = state
       and type action = action)

  let generative_pure cfg =
    (module struct
      type nonrec state = state
      type nonrec action = action

      let equal_state = equal_state
      let pp_state = pp_state
      let pp_action = pp_action
      let enabled = enabled
      let step = step
      let is_external = is_external
      let candidates rng s = candidates cfg rng rng s
    end : Ioa.Automaton.GENERATIVE
      with type state = state
       and type action = action)
end
