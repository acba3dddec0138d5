open Prelude

module Make (M : Msg_intf.S) = struct
  module E = Engine.Make (M)
  module N = Net.Make (M)

  type packet = M.t Packet.t

  type state = {
    net : N.state;
    daemon : Daemon.t;
    engines : E.state Proc.Map.t;
    p0 : Proc.Set.t;
  }

  type action =
    | Gpsnd of Proc.t * M.t
    | Newview of View.t * Proc.t
    | Gprcv of { src : Proc.t; dst : Proc.t; msg : M.t }
    | Safe of { src : Proc.t; dst : Proc.t; msg : M.t }
    | Createview of View.t
    | Reconfigure of Proc.Set.t list
    | Send of { src : Proc.t; dst : Proc.t; pkt : packet }
    | Deliver of { src : Proc.t; dst : Proc.t; pkt : packet }
    | Drop of { src : Proc.t; dst : Proc.t }
    | Duplicate of { src : Proc.t; dst : Proc.t }
    | Reorder of { src : Proc.t; dst : Proc.t }
    | Retransmit of { src : Proc.t; dst : Proc.t; pkt : packet }

  let initial ?(faults = Fault.none) ?variant ?drop_stale ~universe ~p0 () =
    let drop_stale =
      match drop_stale with Some b -> b | None -> Fault.is_faulty faults
    in
    let engines =
      List.fold_left
        (fun acc p -> Proc.Map.add p (E.initial ?variant ~drop_stale ~p0 p) acc)
        Proc.Map.empty
        (List.init universe Fun.id)
    in
    {
      net = N.with_faults N.initial faults;
      daemon = Daemon.initial ~p0;
      engines;
      p0;
    }

  let set_faults s faults = { s with net = N.with_faults s.net faults }

  let engine s p =
    match Proc.Map.find_opt p s.engines with
    | Some e -> e
    | None -> invalid_arg "Stack.engine: unknown process"

  let with_engine s p f = { s with engines = Proc.Map.add p (f (engine s p)) s.engines }

  let pkt_equal a b = Packet.compare M.compare a b = 0

  (* Whether engine [src] currently offers exactly this send. *)
  let send_offered e ~dst pkt =
    let same (d, p) = Proc.equal d dst && pkt_equal p pkt in
    match pkt with
    | Packet.Fwd _ -> ( match E.fwd_send e with Some dp -> same dp | None -> false)
    | Packet.Seq _ -> List.exists same (E.bcast_sends e)
    | Packet.Ack _ -> List.exists same (E.ack_sends e)
    | Packet.Stable _ -> List.exists same (E.stable_sends e)

  let valid_components comps =
    List.for_all (fun c -> not (Proc.Set.is_empty c)) comps
    &&
    let total = List.fold_left (fun n c -> n + Proc.Set.cardinal c) 0 comps in
    let union = List.fold_left Proc.Set.union Proc.Set.empty comps in
    total = Proc.Set.cardinal union

  let enabled s = function
    | Gpsnd (_, _) -> true
    | Newview (v, p) ->
        View.Set.mem v (Daemon.created ~p0:s.p0 s.daemon)
        && Daemon.can_notify s.daemon v p
    | Gprcv { src; dst; msg } -> (
        match E.deliverable (engine s dst) with
        | Some (origin, m) -> Proc.equal origin src && M.equal m msg
        | None -> false)
    | Safe { src; dst; msg } -> (
        match E.safe_ready (engine s dst) with
        | Some (origin, m) -> Proc.equal origin src && M.equal m msg
        | None -> false)
    | Createview v -> (
        match Daemon.create s.daemon (View.set v) with
        | Some (_, v') -> View.equal v v'
        | None -> false)
    | Reconfigure comps -> valid_components comps
    | Send { src; dst; pkt } -> send_offered (engine s src) ~dst pkt
    | Deliver { src; dst; pkt } -> (
        match N.deliverable s.net ~src ~dst with
        | Some head -> pkt_equal head pkt
        | None -> false)
    | Drop { src; dst } -> N.can_drop s.net ~src ~dst
    | Duplicate { src; dst } -> N.can_duplicate s.net ~src ~dst
    | Reorder { src; dst } -> N.can_reorder s.net ~src ~dst
    | Retransmit { src; dst; pkt } ->
        Fault.is_faulty s.net.N.faults
        && (not (N.in_channel s.net ~src ~dst pkt))
        && List.exists
             (fun (d, p) -> Proc.equal d dst && pkt_equal p pkt)
             (E.retransmit_sends (engine s src))

  (* [?metrics] only bumps counters and [?sink] only emits trace points in
     the Net/Engine/Daemon layers; the returned state is identical with or
     without them. *)
  let step ?metrics ?sink s = function
    | Gpsnd (p, m) -> with_engine s p (fun e -> E.on_gpsnd e m)
    | Newview (v, p) ->
        let s = { s with daemon = Daemon.notify ?metrics s.daemon v p } in
        with_engine s p (fun e -> E.on_newview ?metrics e v)
    | Gprcv { dst; _ } -> with_engine s dst (E.delivered ?metrics ?sink)
    | Safe { dst; _ } -> with_engine s dst (E.safed ?metrics ?sink)
    | Createview v -> (
        match Daemon.create ?metrics s.daemon (View.set v) with
        | Some (daemon, _) -> { s with daemon }
        | None -> s)
    | Reconfigure comps ->
        {
          s with
          net = N.reconfigure ?metrics s.net comps;
          daemon = Daemon.reconfigure s.daemon comps;
        }
    | Send { src; dst; pkt } ->
        let s =
          with_engine s src (fun e ->
              match pkt with
              | Packet.Fwd _ -> E.sent_fwd e
              | Packet.Seq { gid; _ } -> E.sent_bcast e ~dst ~gid
              | Packet.Ack { gid; upto } -> E.sent_ack e ~gid ~upto
              | Packet.Stable { gid; upto } -> E.sent_stable e ~dst ~gid ~upto)
        in
        { s with net = N.send ?metrics s.net ~src ~dst pkt }
    | Deliver { src; dst; pkt } ->
        let s = { s with net = N.pop ?metrics s.net ~src ~dst } in
        with_engine s dst (fun e -> E.on_packet ?metrics ?sink e ~src pkt)
    | Drop { src; dst } -> { s with net = N.drop ?metrics s.net ~src ~dst }
    | Duplicate { src; dst } ->
        { s with net = N.duplicate ?metrics s.net ~src ~dst }
    | Reorder { src; dst } -> { s with net = N.reorder ?metrics s.net ~src ~dst }
    | Retransmit { src; dst; pkt } ->
        (* a pure re-send: the [sent_*] bookkeeping already happened on the
           original transmission, so only the network changes *)
        (match metrics with
        | None -> ()
        | Some m -> Obs.Metrics.incr m "net.retransmits");
        { s with net = N.send ?metrics s.net ~src ~dst pkt }

  let is_external = function
    | Gpsnd _ | Newview _ | Gprcv _ | Safe _ -> true
    | Createview _ | Reconfigure _ | Send _ | Deliver _ | Drop _ | Duplicate _
    | Reorder _ | Retransmit _ ->
        false

  let pp_state ppf s =
    Format.fprintf ppf "@[<v>%a@ %a@ %a@]" N.pp s.net Daemon.pp s.daemon
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf (_, e) ->
           E.pp ppf e))
      (Proc.Map.bindings s.engines)

  (* Canonical full-state rendering — net, daemon and every engine —
     used as the dedup key for exhaustive exploration. *)
  let state_key s =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (N.state_key s.net);
    Buffer.add_string buf "||";
    Buffer.add_string buf (Daemon.state_key s.daemon);
    Proc.Map.iter
      (fun p e ->
        Buffer.add_char buf '#';
        Proc.to_buffer buf p;
        Buffer.add_char buf ':';
        Buffer.add_string buf (E.state_key e))
      s.engines;
    Buffer.add_string buf "|p0";
    Proc.Set.to_buffer buf s.p0;
    Buffer.contents buf

  (* A step replaces at most one engine and the net, sharing the rest with
     its predecessor, so three codecs are segment-memoised (a site each per
     [codec_state] call).  The stack is not equivariant (the least view
     member sequences), so [permute] only serves the symmetry audit. *)
  let record : (M.t, state) Check.Record.t =
    let open Check.Record in
    let memo = Check.Codec.memo in
    make (fun net daemon engines p0 -> { net; daemon; engines; p0 })
      [
        field "net" (fun s -> s.net) (Payload (fun m -> memo (N.codec_state m)))
          N.equal ~permute:N.permute ~family:(Nested N.record);
        field "daemon" (fun s -> s.daemon) (Payload (fun _ -> memo Daemon.codec))
          Daemon.equal ~permute:Daemon.permute ~family:(Nested (Daemon.record ()));
        field "engines" (fun s -> s.engines)
          (Payload (fun m -> Check.Codec.proc_map (memo (E.codec_state m))))
          (Proc.Map.equal E.equal) ~family:(Per_proc E.record)
          ~permute:(fun pi es ->
            Proc.Map.fold (fun p e -> Proc.Map.add (pi p) (E.permute pi e)) es Proc.Map.empty);
        field "p0" (fun s -> s.p0) (Fixed Check.Codec.proc_set) Proc.Set.equal
          ~permute:Proc.Set.map;
      ]

  let equal_state = Check.Record.equal record
  let codec_state = Check.Record.codec record
  let permute = Check.Record.permute record

  let permute_action pi = function
    | Gpsnd (p, m) -> Gpsnd (pi p, m)
    | Newview (v, p) -> Newview (View.permute pi v, pi p)
    | Gprcv { src; dst; msg } -> Gprcv { src = pi src; dst = pi dst; msg }
    | Safe { src; dst; msg } -> Safe { src = pi src; dst = pi dst; msg }
    | Createview v -> Createview (View.permute pi v)
    | Reconfigure comps -> Reconfigure (List.map (Proc.Set.map pi) comps)
    | Send { src; dst; pkt } ->
        Send { src = pi src; dst = pi dst; pkt = Packet.permute pi pkt }
    | Deliver { src; dst; pkt } ->
        Deliver { src = pi src; dst = pi dst; pkt = Packet.permute pi pkt }
    | Drop { src; dst } -> Drop { src = pi src; dst = pi dst }
    | Duplicate { src; dst } -> Duplicate { src = pi src; dst = pi dst }
    | Reorder { src; dst } -> Reorder { src = pi src; dst = pi dst }
    | Retransmit { src; dst; pkt } ->
        Retransmit { src = pi src; dst = pi dst; pkt = Packet.permute pi pkt }

  let pp_action ppf = function
    | Gpsnd (p, m) -> Format.fprintf ppf "vs-gpsnd(%a)_%a" M.pp m Proc.pp p
    | Newview (v, p) -> Format.fprintf ppf "vs-newview(%a)_%a" View.pp v Proc.pp p
    | Gprcv { src; dst; msg } ->
        Format.fprintf ppf "vs-gprcv(%a)_%a,%a" M.pp msg Proc.pp src Proc.pp dst
    | Safe { src; dst; msg } ->
        Format.fprintf ppf "vs-safe(%a)_%a,%a" M.pp msg Proc.pp src Proc.pp dst
    | Createview v -> Format.fprintf ppf "[createview(%a)]" View.pp v
    | Reconfigure comps ->
        Format.fprintf ppf "[reconfigure(%d components)]" (List.length comps)
    | Send { src; dst; pkt } ->
        Format.fprintf ppf "[send %a→%a: %a]" Proc.pp src Proc.pp dst
          (Packet.pp M.pp) pkt
    | Deliver { src; dst; pkt } ->
        Format.fprintf ppf "[deliver %a→%a: %a]" Proc.pp src Proc.pp dst
          (Packet.pp M.pp) pkt
    | Drop { src; dst } ->
        Format.fprintf ppf "[drop %a→%a]" Proc.pp src Proc.pp dst
    | Duplicate { src; dst } ->
        Format.fprintf ppf "[duplicate %a→%a]" Proc.pp src Proc.pp dst
    | Reorder { src; dst } ->
        Format.fprintf ppf "[reorder %a→%a]" Proc.pp src Proc.pp dst
    | Retransmit { src; dst; pkt } ->
        Format.fprintf ppf "[retransmit %a→%a: %a]" Proc.pp src Proc.pp dst
          (Packet.pp M.pp) pkt

  (* ---------------------------------------------------------------- *)
  (* Generation                                                        *)
  (* ---------------------------------------------------------------- *)

  type config = {
    universe : int;
    p0 : Proc.Set.t;
    payloads : M.t list;
    max_views : int;
    max_sends : int;
  }

  let default_config ~payloads ~universe =
    {
      universe;
      p0 = Proc.Set.universe universe;
      payloads;
      max_views = 4;
      max_sends = 16;
    }

  (* Pace view creation on full notification of the latest issued view. *)
  let latest_settled s =
    match View.Set.max_id s.daemon.Daemon.issued with
    | None -> true
    | Some v ->
        Proc.Set.for_all
          (fun p -> not (Daemon.can_notify s.daemon v p))
          (View.set v)

  let candidates cfg rng_views rng s =
    let procs = List.init cfg.universe Fun.id in
    let split_proposal () =
      let alive = Proc.Set.elements cfg.p0 in
      let left = List.filter (fun _ -> Random.State.bool rng_views) alive in
      let right = List.filter (fun p -> not (List.mem p left)) alive in
      match (left, right) with
      | [], _ | _, [] -> []
      | _ -> [ Reconfigure [ Proc.Set.of_list left; Proc.Set.of_list right ] ]
    in
    let merge_proposal () =
      if s.net.N.blocked <> [] then [ Reconfigure [ cfg.p0 ] ] else []
    in
    (* connectivity and view changes are rare relative to message flow *)
    let reconfigs =
      if Random.State.int rng_views 10 <> 0 then []
      else if s.net.N.blocked <> [] then merge_proposal ()
      else split_proposal ()
    in
    let createviews =
      if
        View.Set.cardinal s.daemon.Daemon.issued >= cfg.max_views
        || (not (latest_settled s))
        || Random.State.int rng_views 6 <> 0
      then []
      else
        List.filter_map
          (fun c ->
            match Daemon.create s.daemon c with
            | Some (_, v) -> Some (Createview v)
            | None -> None)
          s.daemon.Daemon.components
    in
    let newviews =
      View.Set.fold
        (fun v acc ->
          Proc.Set.fold
            (fun p acc ->
              if Daemon.can_notify s.daemon v p then Newview (v, p) :: acc
              else acc)
            (View.set v) acc)
        s.daemon.Daemon.issued []
    in
    let faulty = Fault.is_faulty s.net.N.faults in
    (* Client messages alive in the system: queued, sequenced and — under a
       faulty transport only, to keep fault-free runs byte-identical —
       forwarded but not (yet) accepted by the sequencer.  Without the last
       term a dropped forward would free a send-budget slot forever. *)
    let unaccepted_fwds e =
      Gid.Map.fold
        (fun g log acc ->
          let w =
            match Gid.Map.find_opt g e.E.views_seen with
            | None -> Seqs.length log
            | Some v -> (
                match Proc.Map.find_opt (E.sequencer v) s.engines with
                | None -> Seqs.length log
                | Some se -> E.fwd_seen_of se ~src:e.E.me g)
          in
          acc + max 0 (Seqs.length log - w))
        e.E.fwd_log 0
    in
    let total_client =
      Proc.Map.fold
        (fun _ e acc ->
          acc
          + Gid.Map.fold (fun _ q n -> n + Seqs.length q) e.E.outq 0
          + Gid.Map.fold (fun _ q n -> n + Seqs.length q) e.E.seq_log 0
          + (if faulty then unaccepted_fwds e else 0))
        s.engines 0
    in
    let gpsnds =
      if total_client >= cfg.max_sends || cfg.payloads = [] then []
      else begin
        let m =
          List.nth cfg.payloads (Random.State.int rng (List.length cfg.payloads))
        in
        List.map (fun p -> Gpsnd (p, m)) procs
      end
    in
    let engine_sends =
      List.concat_map
        (fun p ->
          let e = engine s p in
          let fwd =
            match E.fwd_send e with
            | Some (dst, pkt) -> [ Send { src = p; dst; pkt } ]
            | None -> []
          in
          let others =
            List.map
              (fun (dst, pkt) -> Send { src = p; dst; pkt })
              (E.bcast_sends e @ E.ack_sends e @ E.stable_sends e)
          in
          fwd @ others)
        procs
    in
    (* retransmissions: deterministic offers, never rng-gated, so the
       faulty registry entry can completeness-check them *)
    let retransmits =
      if not faulty then []
      else
        List.concat_map
          (fun p ->
            List.filter_map
              (fun (dst, pkt) ->
                if N.in_channel s.net ~src:p ~dst pkt then None
                else Some (Retransmit { src = p; dst; pkt }))
              (E.retransmit_sends (engine s p)))
          procs
    in
    (* fault injections: rng-gated by the policy probabilities; a
       probability ≥ 1 skips the draw, so exhaustive exploration of the
       adversarial policy is deterministic *)
    let fault_props =
      if not faulty then []
      else begin
        let gate prob =
          prob >= 1.0
          || (prob > 0.0 && Random.State.float rng_views 1.0 < prob)
        in
        let f = s.net.N.faults in
        Pg_map.fold
          (fun (src, dst) _ acc ->
            let acc =
              if N.can_drop s.net ~src ~dst && gate f.Fault.drop then
                Drop { src; dst } :: acc
              else acc
            in
            let acc =
              if N.can_duplicate s.net ~src ~dst && gate f.Fault.duplicate then
                Duplicate { src; dst } :: acc
              else acc
            in
            if N.can_reorder s.net ~src ~dst && gate f.Fault.reorder then
              Reorder { src; dst } :: acc
            else acc)
          s.net.N.channels []
      end
    in
    let delivers =
      Pg_map.fold
        (fun (src, dst) _ acc ->
          match N.deliverable s.net ~src ~dst with
          | Some pkt -> Deliver { src; dst; pkt } :: acc
          | None -> acc)
        s.net.N.channels []
    in
    let outputs =
      List.concat_map
        (fun p ->
          let e = engine s p in
          let rcv =
            match E.deliverable e with
            | Some (src, msg) -> [ Gprcv { src; dst = p; msg } ]
            | None -> []
          in
          let safe =
            match E.safe_ready e with
            | Some (src, msg) -> [ Safe { src; dst = p; msg } ]
            | None -> []
          in
          rcv @ safe)
        procs
    in
    let base =
      reconfigs @ createviews @ newviews @ gpsnds @ engine_sends @ retransmits
      @ fault_props @ delivers @ outputs
    in
    (* never quiesce merely because the rng withheld a proposal: if nothing
       else is possible, heal the partition so blocked traffic can flow *)
    if base = [] then merge_proposal () else base

  let generative ?metrics ?sink ?prof cfg ~rng_views =
    (* With [?prof], transitions charge wall time to the engine-path
       phases (slot 0 — generative runs are single-threaded): network
       [send]s, [retransmit]s, and the [deliver] path (packet receipt plus
       the client-side gprcv/safe indications).  Interned here, once. *)
    let instrumented_step =
      match prof with
      | None -> fun s a -> step ?metrics ?sink s a
      | Some p ->
          let ph_send = Obs.Prof.intern p "send" in
          let ph_retransmit = Obs.Prof.intern p "retransmit" in
          let ph_deliver = Obs.Prof.intern p "deliver" in
          fun s a ->
            let ph =
              match a with
              | Send _ -> ph_send
              | Retransmit _ -> ph_retransmit
              | Deliver _ | Gprcv _ | Safe _ -> ph_deliver
              | Gpsnd _ | Newview _ | Createview _ | Reconfigure _ | Drop _
              | Duplicate _ | Reorder _ ->
                  -1
            in
            if ph < 0 then step ?metrics ?sink s a
            else begin
              Obs.Prof.enter p ~slot:0 ph;
              Fun.protect
                ~finally:(fun () -> Obs.Prof.leave p ~slot:0 ph)
                (fun () -> step ?metrics ?sink s a)
            end
    in
    (module struct
      type nonrec state = state
      type nonrec action = action

      let equal_state = equal_state
      let pp_state = pp_state
      let pp_action = pp_action
      let enabled = enabled
      let step s a = instrumented_step s a
      let is_external = is_external
      let candidates rng s = candidates cfg rng_views rng s
    end : Ioa.Automaton.GENERATIVE
      with type state = state
       and type action = action)

  (* No [?metrics]: a metrics registry captured by [step] would be mutated
     concurrently under parallel exploration. *)
  let generative_pure cfg =
    (module struct
      type nonrec state = state
      type nonrec action = action

      let equal_state = equal_state
      let pp_state = pp_state
      let pp_action = pp_action
      let enabled = enabled
      let step s a = step s a
      let is_external = is_external
      let candidates rng s = candidates cfg rng rng s
    end : Ioa.Automaton.GENERATIVE
      with type state = state
       and type action = action)
end
