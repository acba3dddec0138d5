open Prelude

module Make (M : Msg_intf.S) = struct
  module Node = Vs_to_dvs.Make (M)
  module Wm = Wire.Make (M)
  module Vsw = Vs.Vs_spec.Make (Wire.Make (M))

  type wire = M.t Wire.t

  type state = { vs : Vsw.state; nodes : Node.state Proc.Map.t }

  type action =
    | Dvs_gpsnd of Proc.t * M.t
    | Dvs_register of Proc.t
    | Dvs_newview of View.t * Proc.t
    | Dvs_gprcv of { src : Proc.t; dst : Proc.t; msg : M.t }
    | Dvs_safe of { src : Proc.t; dst : Proc.t; msg : M.t }
    | Vs_createview of View.t
    | Vs_newview of View.t * Proc.t
    | Vs_gpsnd of Proc.t * wire
    | Vs_order of wire * Proc.t * Gid.t
    | Vs_gprcv of { src : Proc.t; dst : Proc.t; msg : wire; gid : Gid.t }
    | Vs_safe of { src : Proc.t; dst : Proc.t; msg : wire; gid : Gid.t }
    | Garbage_collect of Proc.t * View.t

  let initial ~universe ~p0 =
    let nodes =
      List.fold_left
        (fun acc p -> Proc.Map.add p (Node.initial ~p0 p) acc)
        Proc.Map.empty
        (List.init universe Fun.id)
    in
    { vs = Vsw.initial p0; nodes }

  let node s p =
    match Proc.Map.find_opt p s.nodes with
    | Some n -> n
    | None -> invalid_arg "Dvs_impl.node: unknown process"

  let with_node s p f = { s with nodes = Proc.Map.add p (f (node s p)) s.nodes }

  let enabled_v variant s = function
    | Dvs_gpsnd (_, _) | Dvs_register _ -> true
    | Dvs_newview (v, p) -> Node.enabled_v variant (node s p) (Node.Dvs_newview v)
    | Dvs_gprcv { src; dst; msg } ->
        Node.enabled_v variant (node s dst) (Node.Dvs_gprcv (src, msg))
    | Dvs_safe { src; dst; msg } ->
        Node.enabled_v variant (node s dst) (Node.Dvs_safe (src, msg))
    | Vs_createview v -> Vsw.enabled s.vs (Vsw.Createview v)
    | Vs_newview (v, p) -> Vsw.enabled s.vs (Vsw.Newview (v, p))
    | Vs_gpsnd (p, m) -> Node.enabled_v variant (node s p) (Node.Vs_gpsnd m)
    | Vs_order (m, p, g) -> Vsw.enabled s.vs (Vsw.Order (m, p, g))
    | Vs_gprcv { src; dst; msg; gid } ->
        Vsw.enabled s.vs (Vsw.Gprcv { src; dst; msg; gid })
    | Vs_safe { src; dst; msg; gid } ->
        Vsw.enabled s.vs (Vsw.Safe { src; dst; msg; gid })
    | Garbage_collect (p, v) ->
        Node.enabled_v variant (node s p) (Node.Garbage_collect v)

  let step_v variant s action =
    let node_step p a = with_node s p (fun n -> Node.step_v variant n a) in
    match action with
    | Dvs_gpsnd (p, m) -> node_step p (Node.Dvs_gpsnd m)
    | Dvs_register p -> node_step p Node.Dvs_register
    | Dvs_newview (v, p) -> node_step p (Node.Dvs_newview v)
    | Dvs_gprcv { src; dst; msg } -> node_step dst (Node.Dvs_gprcv (src, msg))
    | Dvs_safe { src; dst; msg } -> node_step dst (Node.Dvs_safe (src, msg))
    | Vs_createview v -> { s with vs = Vsw.step s.vs (Vsw.Createview v) }
    | Vs_newview (v, p) ->
        let s = { s with vs = Vsw.step s.vs (Vsw.Newview (v, p)) } in
        with_node s p (fun n -> Node.step_v variant n (Node.Vs_newview v))
    | Vs_gpsnd (p, m) ->
        let s = node_step p (Node.Vs_gpsnd m) in
        { s with vs = Vsw.step s.vs (Vsw.Gpsnd (p, m)) }
    | Vs_order (m, p, g) -> { s with vs = Vsw.step s.vs (Vsw.Order (m, p, g)) }
    | Vs_gprcv { src; dst; msg; gid } ->
        let s = { s with vs = Vsw.step s.vs (Vsw.Gprcv { src; dst; msg; gid }) } in
        with_node s dst (fun n -> Node.step_v variant n (Node.Vs_gprcv (src, msg)))
    | Vs_safe { src; dst; msg; gid } ->
        let s = { s with vs = Vsw.step s.vs (Vsw.Safe { src; dst; msg; gid }) } in
        with_node s dst (fun n -> Node.step_v variant n (Node.Vs_safe (src, msg)))
    | Garbage_collect (p, v) -> node_step p (Node.Garbage_collect v)

  let is_external = function
    | Dvs_gpsnd _ | Dvs_register _ | Dvs_newview _ | Dvs_gprcv _ | Dvs_safe _ ->
        true
    | Vs_createview _ | Vs_newview _ | Vs_gpsnd _ | Vs_order _ | Vs_gprcv _
    | Vs_safe _ | Garbage_collect _ ->
        false

  let equal_state a b =
    Vsw.equal_state a.vs b.vs
    && Proc.Map.equal (fun x y -> Node.equal_state x y) a.nodes b.nodes

  let pp_state ppf s =
    Format.fprintf ppf "@[<v>vs: %a@ %a@]" Vsw.pp_state s.vs
      (Format.pp_print_list
         ~pp_sep:Format.pp_print_cut
         (fun ppf (p, n) -> Format.fprintf ppf "%a: %a" Proc.pp p Node.pp_state n))
      (Proc.Map.bindings s.nodes)

  (* Canonical dedup key for exhaustive exploration: the VS specification's
     own key plus every node's full rendering. *)
  let state_key s =
    let buf = Buffer.create 1024 in
    Vsw.key_to_buffer buf s.vs;
    Proc.Map.iter
      (fun p n ->
        Buffer.add_char buf '#';
        Proc.to_buffer buf p;
        Buffer.add_char buf ':';
        Node.key_to_buffer buf n)
      s.nodes;
    Buffer.contents buf

  (* Flat canonical codec: the VS specification's codec over the wire
     alphabet plus the per-process node codec, composed componentwise. *)
  let codec_state (m : M.t Check.Codec.f) : state Check.Codec.f =
    let open Check.Codec in
    let vs_c = Vsw.codec_state (Wire.codec m) in
    let nodes_c = proc_map (Node.codec_state m) in
    {
      wr =
        (fun b s ->
          vs_c.wr b s.vs;
          nodes_c.wr b s.nodes);
      rd =
        (fun r ->
          let vs = vs_c.rd r in
          let nodes = nodes_c.rd r in
          { vs; nodes });
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
    | Vs_createview v -> Format.fprintf ppf "[vs-createview(%a)]" View.pp v
    | Vs_newview (v, p) ->
        Format.fprintf ppf "[vs-newview(%a)_%a]" View.pp v Proc.pp p
    | Vs_gpsnd (p, m) -> Format.fprintf ppf "[vs-gpsnd(%a)_%a]" Wm.pp m Proc.pp p
    | Vs_order (m, p, g) ->
        Format.fprintf ppf "[vs-order(%a,%a,%a)]" Wm.pp m Proc.pp p Gid.pp g
    | Vs_gprcv { src; dst; msg; gid } ->
        Format.fprintf ppf "[vs-gprcv(%a)_%a,%a@%a]" Wm.pp msg Proc.pp src
          Proc.pp dst Gid.pp gid
    | Vs_safe { src; dst; msg; gid } ->
        Format.fprintf ppf "[vs-safe(%a)_%a,%a@%a]" Wm.pp msg Proc.pp src
          Proc.pp dst Gid.pp gid
    | Garbage_collect (p, v) ->
        Format.fprintf ppf "[gc(%a)_%a]" View.pp v Proc.pp p

  let automaton variant =
    (module struct
      type nonrec state = state
      type nonrec action = action

      let equal_state = equal_state
      let pp_state = pp_state
      let pp_action = pp_action
      let enabled = enabled_v variant
      let step = step_v variant
      let is_external = is_external
    end : Ioa.Automaton.S
      with type state = state
       and type action = action)

  (* Derived variables of Section 5.1. *)

  let created s =
    Proc.Map.fold
      (fun _ n acc -> View.Set.union n.Node.attempted acc)
      s.nodes View.Set.empty

  let att = created

  let tot_att s =
    View.Set.filter
      (fun v ->
        Proc.Set.for_all
          (fun p -> View.Set.mem v (node s p).Node.attempted)
          (View.set v))
      (created s)

  let reg s =
    View.Set.filter
      (fun v ->
        Proc.Set.exists
          (fun p -> Node.reg_of (node s p) (View.id v))
          (View.set v))
      (created s)

  let tot_reg s =
    View.Set.filter
      (fun v ->
        Proc.Set.for_all
          (fun p -> Node.reg_of (node s p) (View.id v))
          (View.set v))
      (created s)

  let tot_reg_between s a b =
    let lo = min a b and hi = max a b in
    View.Set.exists
      (fun x -> Gid.lt lo (View.id x) && Gid.lt (View.id x) hi)
      (tot_reg s)

  (* Generation. *)

  type schedule = Unrestricted | Eager_clients | Synchronized

  type config = {
    universe : int;
    p0 : Proc.Set.t;
    payloads : M.t list;
    max_views : int;
    max_sends : int;
    schedule : schedule;
    variant : Vs_to_dvs.variant;
    register_probability : float;
    view_proposals : [ `Random | `All_subsets ];
  }

  let default_config ~payloads ~universe =
    {
      universe;
      p0 = Proc.Set.universe universe;
      payloads;
      max_views = 5;
      max_sends = 30;
      schedule = Eager_clients;
      variant = Vs_to_dvs.Faithful;
      register_probability = 1.0;
      view_proposals = `Random;
    }

  (* Client-facing relay drains: dvs-gprcv / dvs-safe outputs currently
     enabled.  These are prioritized under Eager_clients and Synchronized. *)
  let drain_candidates s =
    Proc.Map.fold
      (fun p n acc ->
        match n.Node.client_cur with
        | None -> acc
        | Some cc ->
            let g = View.id cc in
            let acc =
              match Seqs.head_opt (Node.msgs_from_vs_of n g) with
              | Some (msg, src) -> Dvs_gprcv { src; dst = p; msg } :: acc
              | None -> acc
            in
            let acc =
              match Seqs.head_opt (Node.safe_from_vs_of n g) with
              | Some (msg, src) -> Dvs_safe { src; dst = p; msg } :: acc
              | None -> acc
            in
            acc)
      s.nodes []

  (* Under Synchronized, a VS-level safe indication for a *client* message in
     view [gid] may be delivered only once every member's client is in the
     view and has consumed everything VS has handed it so far.  This is the
     schedule under which the strict Theorem 5.9 (including the DVS-SAFE
     case) is checkable; see Refinement_f. *)
  let sync_ok s gid =
    match Vsw.created_view s.vs gid with
    | None -> false
    | Some v ->
        Proc.Set.for_all
          (fun r ->
            let n = node s r in
            Gid.Bot.equal (Node.client_cur_id n) (Gid.Bot.of_gid gid)
            && Seqs.is_empty (Node.msgs_from_vs_of n gid))
          (View.set v)

  (* Pace view creation: a fresh view is only proposed once the latest one
     has been reported to all its members — modelling the stability periods
     during which a real membership service lets a view settle.  Without
     pacing, random runs burn the view budget before anything is attempted. *)
  let latest_view_settled s =
    match View.Set.max_id s.vs.Vsw.created with
    | None -> true
    | Some v ->
        Proc.Set.for_all
          (fun p ->
            Gid.Bot.equal
              (Vsw.current_viewid_of s.vs p)
              (Gid.Bot.of_gid (View.id v)))
          (View.set v)

  let candidates cfg rng_views rng s =
    let procs = List.init cfg.universe Fun.id in
    let drains = drain_candidates s in
    match (cfg.schedule, drains) with
    | (Eager_clients | Synchronized), (_ :: _ as ds) -> ds
    | (Unrestricted | Eager_clients | Synchronized), _ ->
        let createviews =
          if
            View.Set.cardinal s.vs.Vsw.created >= cfg.max_views
            || not (latest_view_settled s)
          then []
          else begin
            let top =
              View.Set.fold
                (fun v g -> Gid.max g (View.id v))
                s.vs.Vsw.created Gid.g0
            in
            let fresh = Gid.succ top in
            match cfg.view_proposals with
            | `Random ->
                let members =
                  List.filter (fun _ -> Random.State.bool rng_views) procs
                in
                let set =
                  match members with
                  | [] ->
                      Proc.Set.singleton (Random.State.int rng_views cfg.universe)
                  | _ :: _ -> Proc.Set.of_list members
                in
                [ Vs_createview (View.make ~id:fresh ~set) ]
            | `All_subsets ->
                List.map
                  (fun set -> Vs_createview (View.make ~id:fresh ~set))
                  (Proc.Set.nonempty_subsets (Proc.Set.universe cfg.universe))
          end
        in
        let vs_newviews =
          View.Set.fold
            (fun v acc ->
              Proc.Set.fold
                (fun p acc ->
                  if Vsw.enabled s.vs (Vsw.Newview (v, p)) then
                    Vs_newview (v, p) :: acc
                  else acc)
                (View.set v) acc)
            s.vs.Vsw.created []
        in
        let vs_gpsnds =
          List.filter_map
            (fun p ->
              let n = node s p in
              match n.Node.cur with
              | None -> None
              | Some cur -> (
                  match Seqs.head_opt (Node.msgs_to_vs_of n (View.id cur)) with
                  | Some m -> Some (Vs_gpsnd (p, m))
                  | None -> None))
            procs
        in
        let vs_orders =
          Pg_map.fold
            (fun (p, g) q acc ->
              match Seqs.head_opt q with
              | Some m -> Vs_order (m, p, g) :: acc
              | None -> acc)
            s.vs.Vsw.pending []
        in
        let vs_deliveries =
          List.concat_map
            (fun dst ->
              match Vsw.current_viewid_of s.vs dst with
              | None -> []
              | Some gid ->
                  let q = Vsw.queue_of s.vs gid in
                  let rcv =
                    match Seqs.nth1_opt q (Vsw.next_of s.vs dst gid) with
                    | Some (msg, src) -> [ Vs_gprcv { src; dst; msg; gid } ]
                    | None -> []
                  in
                  let safe =
                    match Seqs.nth1_opt q (Vsw.next_safe_of s.vs dst gid) with
                    | Some (msg, src) ->
                        let allowed =
                          match (cfg.schedule, msg) with
                          | Synchronized, Wire.Client _ -> sync_ok s gid
                          | (Synchronized | Eager_clients | Unrestricted), _ ->
                              true
                        in
                        if allowed then [ Vs_safe { src; dst; msg; gid } ]
                        else []
                    | None -> []
                  in
                  rcv @ safe)
            procs
        in
        let dvs_newviews =
          List.filter_map
            (fun p ->
              match (node s p).Node.cur with
              | Some v
                when enabled_v cfg.variant s (Dvs_newview (v, p)) ->
                  Some (Dvs_newview (v, p))
              | Some _ | None -> None)
            procs
        in
        let registers =
          List.filter_map
            (fun p ->
              let n = node s p in
              match n.Node.client_cur with
              | Some cc
                when (not (Node.reg_of n (View.id cc)))
                     && Random.State.float rng 1.0 < cfg.register_probability ->
                  Some (Dvs_register p)
              | Some _ | None -> None)
            procs
        in
        let total_sent =
          Pg_map.fold (fun _ q n -> n + Seqs.length q) s.vs.Vsw.pending 0
          + Gid.Map.fold (fun _ q n -> n + Seqs.length q) s.vs.Vsw.queue 0
        in
        let gpsnds =
          if total_sent >= cfg.max_sends || cfg.payloads = [] then []
          else begin
            let m =
              List.nth cfg.payloads
                (Random.State.int rng (List.length cfg.payloads))
            in
            List.map (fun p -> Dvs_gpsnd (p, m)) procs
          end
        in
        let gcs =
          List.concat_map
            (fun p ->
              let n = node s p in
              let known =
                match n.Node.cur with
                | Some c -> View.Set.add c n.Node.amb
                | None -> n.Node.amb
              in
              View.Set.fold
                (fun v acc ->
                  if Node.enabled_v cfg.variant n (Node.Garbage_collect v) then
                    Garbage_collect (p, v) :: acc
                  else acc)
                known [])
            procs
        in
        drains @ createviews @ vs_newviews @ vs_gpsnds @ vs_orders
        @ vs_deliveries @ dvs_newviews @ registers @ gpsnds @ gcs

  let generative cfg ~rng_views =
    (module struct
      type nonrec state = state
      type nonrec action = action

      let equal_state = equal_state
      let pp_state = pp_state
      let pp_action = pp_action
      let enabled = enabled_v cfg.variant
      let step = step_v cfg.variant
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
      let enabled = enabled_v cfg.variant
      let step = step_v cfg.variant
      let is_external = is_external
      let candidates rng s = candidates cfg rng rng s
    end : Ioa.Automaton.GENERATIVE
      with type state = state
       and type action = action)
end
