open Prelude
module Dvs = Core.Dvs_spec.Make (To_msg)

type payload = string

type state = { dvs : Dvs.state; nodes : Dvs_to_to.state Proc.Map.t }

type action =
  | Bcast of Proc.t * payload
  | Brcv of { origin : Proc.t; dst : Proc.t; payload : payload }
  | Label_msg of Proc.t * payload
  | Confirm of Proc.t
  | Dvs_createview of View.t
  | Dvs_newview of View.t * Proc.t
  | Dvs_register of Proc.t
  | Dvs_gpsnd of Proc.t * To_msg.t
  | Dvs_order of To_msg.t * Proc.t * Gid.t
  | Dvs_gprcv of { src : Proc.t; dst : Proc.t; msg : To_msg.t; gid : Gid.t }
  | Dvs_safe of { src : Proc.t; dst : Proc.t; msg : To_msg.t; gid : Gid.t }

let initial ~universe ~p0 =
  let nodes =
    List.fold_left
      (fun acc p -> Proc.Map.add p (Dvs_to_to.initial ~p0 p) acc)
      Proc.Map.empty
      (List.init universe Fun.id)
  in
  { dvs = Dvs.initial p0; nodes }

let node s p =
  match Proc.Map.find_opt p s.nodes with
  | Some n -> n
  | None -> invalid_arg "To_impl.node: unknown process"

let with_node s p f = { s with nodes = Proc.Map.add p (f (node s p)) s.nodes }

let enabled s = function
  | Bcast (_, _) -> true
  | Brcv { origin; dst; payload } ->
      Dvs_to_to.enabled (node s dst) (Dvs_to_to.Brcv (origin, payload))
  | Label_msg (p, a) -> Dvs_to_to.enabled (node s p) (Dvs_to_to.Label_msg a)
  | Confirm p -> Dvs_to_to.enabled (node s p) Dvs_to_to.Confirm
  | Dvs_createview v -> Dvs.enabled s.dvs (Dvs.Createview v)
  | Dvs_newview (v, p) -> Dvs.enabled s.dvs (Dvs.Newview (v, p))
  | Dvs_register p -> Dvs_to_to.enabled (node s p) Dvs_to_to.Dvs_register
  | Dvs_gpsnd (p, m) -> Dvs_to_to.enabled (node s p) (Dvs_to_to.Dvs_gpsnd m)
  | Dvs_order (m, p, g) -> Dvs.enabled s.dvs (Dvs.Order (m, p, g))
  | Dvs_gprcv { src; dst; msg; gid } ->
      Dvs.enabled s.dvs (Dvs.Gprcv { src; dst; msg; gid })
  | Dvs_safe { src; dst; msg; gid } ->
      Dvs.enabled s.dvs (Dvs.Safe { src; dst; msg; gid })

let step s action =
  match action with
  | Bcast (p, a) -> with_node s p (fun n -> Dvs_to_to.step n (Dvs_to_to.Bcast a))
  | Brcv { origin; dst; payload } ->
      with_node s dst (fun n -> Dvs_to_to.step n (Dvs_to_to.Brcv (origin, payload)))
  | Label_msg (p, a) ->
      with_node s p (fun n -> Dvs_to_to.step n (Dvs_to_to.Label_msg a))
  | Confirm p -> with_node s p (fun n -> Dvs_to_to.step n Dvs_to_to.Confirm)
  | Dvs_createview v -> { s with dvs = Dvs.step s.dvs (Dvs.Createview v) }
  | Dvs_newview (v, p) ->
      let s = { s with dvs = Dvs.step s.dvs (Dvs.Newview (v, p)) } in
      with_node s p (fun n -> Dvs_to_to.step n (Dvs_to_to.Dvs_newview v))
  | Dvs_register p ->
      let s = { s with dvs = Dvs.step s.dvs (Dvs.Register p) } in
      with_node s p (fun n -> Dvs_to_to.step n Dvs_to_to.Dvs_register)
  | Dvs_gpsnd (p, m) ->
      let s = with_node s p (fun n -> Dvs_to_to.step n (Dvs_to_to.Dvs_gpsnd m)) in
      { s with dvs = Dvs.step s.dvs (Dvs.Gpsnd (p, m)) }
  | Dvs_order (m, p, g) -> { s with dvs = Dvs.step s.dvs (Dvs.Order (m, p, g)) }
  | Dvs_gprcv { src; dst; msg; gid } ->
      let s = { s with dvs = Dvs.step s.dvs (Dvs.Gprcv { src; dst; msg; gid }) } in
      with_node s dst (fun n -> Dvs_to_to.step n (Dvs_to_to.Dvs_gprcv (src, msg)))
  | Dvs_safe { src; dst; msg; gid } ->
      let s = { s with dvs = Dvs.step s.dvs (Dvs.Safe { src; dst; msg; gid }) } in
      with_node s dst (fun n -> Dvs_to_to.step n (Dvs_to_to.Dvs_safe (src, msg)))

let is_external = function
  | Bcast _ | Brcv _ -> true
  | Label_msg _ | Confirm _ | Dvs_createview _ | Dvs_newview _ | Dvs_register _
  | Dvs_gpsnd _ | Dvs_order _ | Dvs_gprcv _ | Dvs_safe _ ->
      false

let equal_state a b =
  Dvs.equal_state a.dvs b.dvs
  && Proc.Map.equal Dvs_to_to.equal_state a.nodes b.nodes

let pp_state ppf s =
  Format.fprintf ppf "@[<v>dvs: %a@ %a@]" Dvs.pp_state s.dvs
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf (p, n) ->
         Format.fprintf ppf "%a: %a" Proc.pp p Dvs_to_to.pp_state n))
    (Proc.Map.bindings s.nodes)

(* Canonical full-state rendering — the DVS specification's key plus every
   node's — used as the dedup key for exhaustive exploration. *)
let state_key s =
  let buf = Buffer.create 1024 in
  Dvs.key_to_buffer buf s.dvs;
  Proc.Map.iter
    (fun p n ->
      Buffer.add_char buf '#';
      Proc.to_buffer buf p;
      Buffer.add_char buf ':';
      Dvs_to_to.key_to_buffer buf n)
    s.nodes;
  Buffer.contents buf

(* Flat canonical codec: the DVS specification's codec over the TO
   message alphabet plus the per-process node codec. *)
let codec_state : state Check.Codec.f =
  let open Check.Codec in
  let dvs_c = Dvs.codec_state To_msg.codec in
  let nodes_c = proc_map Dvs_to_to.codec_state in
  {
    wr =
      (fun b s ->
        dvs_c.wr b s.dvs;
        nodes_c.wr b s.nodes);
    rd =
      (fun r ->
        let dvs = dvs_c.rd r in
        let nodes = nodes_c.rd r in
        { dvs; nodes });
  }

let pp_action ppf = function
  | Bcast (p, a) -> Format.fprintf ppf "bcast(%s)_%a" a Proc.pp p
  | Brcv { origin; dst; payload } ->
      Format.fprintf ppf "brcv(%s)_%a,%a" payload Proc.pp origin Proc.pp dst
  | Label_msg (p, a) -> Format.fprintf ppf "[label(%s)_%a]" a Proc.pp p
  | Confirm p -> Format.fprintf ppf "[confirm_%a]" Proc.pp p
  | Dvs_createview v -> Format.fprintf ppf "[dvs-createview(%a)]" View.pp v
  | Dvs_newview (v, p) ->
      Format.fprintf ppf "[dvs-newview(%a)_%a]" View.pp v Proc.pp p
  | Dvs_register p -> Format.fprintf ppf "[dvs-register_%a]" Proc.pp p
  | Dvs_gpsnd (p, m) -> Format.fprintf ppf "[dvs-gpsnd(%a)_%a]" To_msg.pp m Proc.pp p
  | Dvs_order (m, p, g) ->
      Format.fprintf ppf "[dvs-order(%a,%a,%a)]" To_msg.pp m Proc.pp p Gid.pp g
  | Dvs_gprcv { src; dst; msg; gid } ->
      Format.fprintf ppf "[dvs-gprcv(%a)_%a,%a@%a]" To_msg.pp msg Proc.pp src
        Proc.pp dst Gid.pp gid
  | Dvs_safe { src; dst; msg; gid } ->
      Format.fprintf ppf "[dvs-safe(%a)_%a,%a@%a]" To_msg.pp msg Proc.pp src
        Proc.pp dst Gid.pp gid

let allstate s =
  let add_msg acc = function
    | To_msg.Summ x -> x :: acc
    | To_msg.Data _ -> acc
  in
  let acc =
    Pg_map.fold
      (fun _ q acc -> Seqs.fold_left add_msg acc q)
      s.dvs.Dvs.pending []
  in
  let acc =
    Gid.Map.fold
      (fun _ q acc -> Seqs.fold_left (fun acc (m, _) -> add_msg acc m) acc q)
      s.dvs.Dvs.queue acc
  in
  Proc.Map.fold
    (fun _ n acc ->
      Proc.Map.fold (fun _ x acc -> x :: acc) n.Dvs_to_to.gotstate acc)
    s.nodes acc

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

type config = {
  universe : int;
  p0 : Proc.Set.t;
  payloads : payload list;
  max_views : int;
  max_bcasts : int;
  view_proposals : [ `Random | `All_subsets ];
}

let default_config ~payloads ~universe =
  {
    universe;
    p0 = Proc.Set.universe universe;
    payloads;
    max_views = 4;
    max_bcasts = 12;
    view_proposals = `Random;
  }

(* Pace view creation (cf. Dvs_impl.System): a fresh primary view is proposed
   only once the latest one has been reported to all its members. *)
let latest_view_settled s =
  match View.Set.max_id s.dvs.Dvs.created with
  | None -> true
  | Some v ->
      Proc.Set.for_all
        (fun p ->
          Gid.Bot.equal (Dvs.current_viewid_of s.dvs p)
            (Gid.Bot.of_gid (View.id v)))
        (View.set v)

let candidates cfg rng_views rng s =
  let procs = List.init cfg.universe Fun.id in
  let createviews =
    if
      View.Set.cardinal s.dvs.Dvs.created >= cfg.max_views
      || not (latest_view_settled s)
    then []
    else begin
      let top =
        View.Set.fold (fun v g -> Gid.max g (View.id v)) s.dvs.Dvs.created Gid.g0
      in
      let fresh = Gid.succ top in
      match cfg.view_proposals with
      | `Random ->
          let members = List.filter (fun _ -> Random.State.bool rng_views) procs in
          let set =
            match members with
            | [] -> Proc.Set.singleton (Random.State.int rng_views cfg.universe)
            | _ :: _ -> Proc.Set.of_list members
          in
          [ Dvs_createview (View.make ~id:fresh ~set) ]
      | `All_subsets ->
          List.map
            (fun set -> Dvs_createview (View.make ~id:fresh ~set))
            (Proc.Set.nonempty_subsets (Proc.Set.universe cfg.universe))
    end
  in
  let newviews =
    View.Set.fold
      (fun v acc ->
        Proc.Set.fold
          (fun p acc ->
            if Dvs.enabled s.dvs (Dvs.Newview (v, p)) then Dvs_newview (v, p) :: acc
            else acc)
          (View.set v) acc)
      s.dvs.Dvs.created []
  in
  let total_bcast =
    Proc.Map.fold
      (fun _ n acc ->
        acc + Seqs.length n.Dvs_to_to.delay + Label.Map.cardinal n.Dvs_to_to.content)
      s.nodes 0
  in
  let bcasts =
    if total_bcast >= cfg.max_bcasts || cfg.payloads = [] then []
    else begin
      let m =
        List.nth cfg.payloads (Random.State.int rng (List.length cfg.payloads))
      in
      List.map (fun p -> Bcast (p, m)) procs
    end
  in
  let node_steps =
    List.concat_map
      (fun p ->
        let n = node s p in
        let labels =
          match Seqs.head_opt n.Dvs_to_to.delay with
          | Some a when Dvs_to_to.enabled n (Dvs_to_to.Label_msg a) ->
              [ Label_msg (p, a) ]
          | Some _ | None -> []
        in
        let sends =
          match n.Dvs_to_to.status with
          | Dvs_to_to.Send -> [ Dvs_gpsnd (p, To_msg.Summ (Dvs_to_to.summary n)) ]
          | Dvs_to_to.Normal -> (
              match Seqs.head_opt n.Dvs_to_to.buffer with
              | Some l -> (
                  match Label.Map.find_opt l n.Dvs_to_to.content with
                  | Some a -> [ Dvs_gpsnd (p, To_msg.Data (l, a)) ]
                  | None -> [])
              | None -> [])
          | Dvs_to_to.Collect -> []
        in
        let registers =
          if Dvs_to_to.enabled n Dvs_to_to.Dvs_register then [ Dvs_register p ]
          else []
        in
        let confirms =
          if Dvs_to_to.enabled n Dvs_to_to.Confirm then [ Confirm p ] else []
        in
        let brcvs =
          match Seqs.nth1_opt n.Dvs_to_to.order n.Dvs_to_to.nextreport with
          | Some l
            when n.Dvs_to_to.nextreport < n.Dvs_to_to.nextconfirm -> (
              match Label.Map.find_opt l n.Dvs_to_to.content with
              | Some a ->
                  [ Brcv { origin = l.Label.origin; dst = p; payload = a } ]
              | None -> [])
          | Some _ | None -> []
        in
        labels @ sends @ registers @ confirms @ brcvs)
      procs
  in
  let orders =
    Pg_map.fold
      (fun (p, g) q acc ->
        match Seqs.head_opt q with
        | Some m -> Dvs_order (m, p, g) :: acc
        | None -> acc)
      s.dvs.Dvs.pending []
  in
  let deliveries =
    List.concat_map
      (fun dst ->
        match Dvs.current_viewid_of s.dvs dst with
        | None -> []
        | Some gid ->
            let q = Dvs.queue_of s.dvs gid in
            let rcv =
              match Seqs.nth1_opt q (Dvs.next_of s.dvs dst gid) with
              | Some (msg, src) -> [ Dvs_gprcv { src; dst; msg; gid } ]
              | None -> []
            in
            let safe =
              match Seqs.nth1_opt q (Dvs.next_safe_of s.dvs dst gid) with
              | Some (msg, src) -> [ Dvs_safe { src; dst; msg; gid } ]
              | None -> []
            in
            rcv @ safe)
      procs
  in
  createviews @ newviews @ bcasts @ node_steps @ orders @ deliveries

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
