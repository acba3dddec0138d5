(* The two live workloads: three [dvsd] endpoint processes behind a
   {!Live.Hub} that this process runs, with one generator loop driving
   client load through [Hub.inject].

   - [Paced]: open loop at a fixed rate, no faults.  Message i is due at
     i / rate seconds into the window; each loop iteration injects every
     message already due.
   - [Storm]: closed loop capped at a number of messages in flight,
     under a five-phase calm/storm [Sim.Faults] schedule, SIGKILL of the
     last endpoint at 40% of the window and its respawn at 55%.  The
     schedule is always E20's (schedule seed 2: the first storm cuts p1
     off from {p0, p2}); the run seed drives the proxy's per-packet
     drop/duplicate/reorder draws.  Seeds that cut no link, or two,
     would change the work done by a fifth between runs.

   The measured window is the injection period.  CPU time and peak
   memory of the endpoints are read from /proc at the window's two
   edges, and from the victim once more just before it is killed.
   After the window the fleet heals, drains and is checked; only
   [verdict_s] counts that part, and it counts only that part (the
   window's length is fixed): heal and drain, then the median of
   [agree_rounds] rounds of snapshot collection and pairwise prefix
   comparison. *)

open Prelude

type load = Paced of float  (** msgs/s *) | Storm of int  (** max in flight *)

type config = {
  load : load;
  seed : int;
  window : float;
  dvsd : string;
  dir : string;
  trace : bool;
  setup_reps : int;
}

let endpoints = 3
let now = Unix.gettimeofday
let stall_timeout = 10.
let agree_rounds = 7

type fleet = { hub : Live.Hub.t; pids : int option array }

let sock cfg = Filename.concat cfg.dir "hub.sock"
let trace_path cfg p = Filename.concat cfg.dir (Printf.sprintf "trace-%d.jsonl" p)
let merged_path cfg = Filename.concat cfg.dir "merged.jsonl"

let spawn cfg p =
  Unix.create_process cfg.dvsd
    [|
      cfg.dvsd; "--proc"; string_of_int p; "--connect"; sock cfg; "--trace";
      trace_path cfg p;
    |]
    Unix.stdin Unix.stderr Unix.stderr

(* Wait for [pid] up to [grace] seconds, then SIGKILL it. *)
let reap ?(grace = 3.) pid =
  let deadline = now () +. grace in
  let rec go () =
    match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        ignore (Unix.select [] [] [] 0.02);
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
    | exception Unix.Unix_error (ECHILD, _, _) -> ()
  in
  go ()

let teardown f =
  Live.Hub.shutdown f.hub;
  Array.iteri
    (fun p pid ->
      Option.iter reap pid;
      f.pids.(p) <- None)
    f.pids

(* Set-up: hub up, endpoints spawned, first full view formed. *)
let boot cfg =
  let t0 = now () in
  let hub =
    Live.Hub.create
      {
        Live.Hub.sock_path = sock cfg;
        universe = Proc.Set.universe endpoints;
        seed = cfg.seed;
        merged_path = Some (merged_path cfg);
      }
  in
  let f = { hub; pids = Array.init endpoints (fun p -> Some (spawn cfg p)) } in
  let rec wait () =
    Live.Hub.poll hub ~timeout:0.001;
    match Live.Hub.primary hub with
    | Some v when Proc.Set.cardinal (View.set v) = endpoints -> now () -. t0
    | _ when now () -. t0 > 15. ->
        teardown f;
        failwith "endpoints failed to connect and form a view"
    | _ -> wait ()
  in
  (f, wait ())

(* Pairwise byte-for-byte agreement of the delivered prefixes the
   endpoints report per view, up to the shorter prefix. *)
let disagreements snaps =
  let check (p1, vs1) (p2, vs2) =
    List.filter_map
      (fun (g, prefix1) ->
        match List.assoc_opt g vs2 with
        | None -> None
        | Some prefix2 ->
            let n = min (List.length prefix1) (List.length prefix2) in
            let enc l =
              Check.Codec.encode Live.Wire.prefix_codec
                (List.filteri (fun i _ -> i < n) l)
            in
            if Bytes.equal (enc prefix1) (enc prefix2) then None
            else
              Some
                (Printf.sprintf "endpoints %d and %d disagree on view %s (%d common)"
                   p1 p2 (Gid.to_string g) n))
      vs1
  in
  let rec pairs = function
    | [] -> []
    | s :: rest -> List.concat_map (check s) rest @ pairs rest
  in
  pairs snaps

let b_poll = 0
let b_inject = 1

let measure cfg f ~setup_s ~spans_path =
  let name = match cfg.load with Paced _ -> "live_paced" | Storm _ -> "live_storm" in
  let hub = f.hub in
  let m = Live.Hub.metrics hub in
  let count = Obs.Metrics.count m in
  let tr = Tracer.create [ "live.hub.poll"; "live.hub.inject" ] in
  let victim = endpoints - 1 in
  (* what the victim's first life used before the SIGKILL *)
  let ended_cpu = ref Procfs.zero and ended_hwm = ref 0. in
  let ended_trace_bytes = ref 0 in
  let phase_at =
    match cfg.load with
    | Paced _ -> fun _ -> None
    | Storm _ ->
        let plan =
          Sim.Faults.schedule
            (Random.State.make [| 2 |])
            ~universe:(Proc.Set.universe endpoints) ~phases:5 ~steps_per_phase:1
        in
        let tl =
          Sim.Faults.timeline
            ~phase_seconds:(cfg.window /. float_of_int (List.length plan))
            plan
        in
        fun el -> Some (tl el)
  in
  let inflight injected =
    injected - Live.Hub.unique_delivered hub - count "soak.lost_on_view_change"
  in
  let lateness = ref [] in
  let injected = ref 0 and refused = ref 0 in
  let current_phase = ref None in
  let killed = ref false and respawned = ref false in
  let stalled = ref false in
  let last_delivered = ref 0 and last_progress = ref (now ()) in
  let ep_cpu () =
    Array.map (function Some pid -> Procfs.cpu pid | None -> Procfs.zero) f.pids
  in
  let hub_cpu0 = Procfs.self_cpu () and ep_cpu0 = ep_cpu () in
  let alloc0 = Gc.allocated_bytes () in
  let t0 = now () in
  let rec inject k =
    if k > 0 then begin
      let late =
        match cfg.load with
        | Paced rate -> now () -. t0 -. (float_of_int !injected /. rate)
        | Storm _ -> 0.
      in
      let ti = Tracer.now () in
      let ok = Live.Hub.inject hub (Printf.sprintf "s%d-m%d" cfg.seed !injected) in
      if cfg.trace then begin
        Tracer.record tr b_inject ti (Tracer.now ());
        if ok then lateness := late :: !lateness
      end;
      if ok then begin
        incr injected;
        inject (k - 1)
      end
      else incr refused
    end
  in
  let running = ref true in
  while !running do
    let el = now () -. t0 in
    if el >= cfg.window then running := false
    else begin
      let tp = Tracer.now () in
      if cfg.trace then Tracer.request tr "live.generator.iteration" tp;
      Live.Hub.poll hub ~timeout:0.002;
      if cfg.trace then Tracer.record tr b_poll tp (Tracer.now ());
      (match phase_at el with
      | Some ph when not (Option.equal ( == ) (Some ph) !current_phase) ->
          current_phase := Some ph;
          Live.Hub.set_phase hub (Some ph)
      | _ -> ());
      (match (cfg.load, f.pids.(victim)) with
      | Storm _, Some pid when (not !killed) && el >= 0.4 *. cfg.window ->
          ended_cpu := Procfs.sub (Procfs.cpu pid) ep_cpu0.(victim);
          ended_hwm := Procfs.hwm_mb pid;
          ended_trace_bytes := (Unix.stat (trace_path cfg victim)).st_size;
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          f.pids.(victim) <- None;
          killed := true
      | Storm _, None when (not !respawned) && el >= 0.55 *. cfg.window ->
          f.pids.(victim) <- Some (spawn cfg victim);
          ep_cpu0.(victim) <- Procfs.zero;
          respawned := true
      | _ -> ());
      inject
        (match cfg.load with
        | Paced rate -> int_of_float (rate *. el) - !injected
        | Storm cap -> min 256 (cap - inflight !injected));
      let d = Live.Hub.delivered_total hub in
      if d > !last_delivered || inflight !injected = 0 then begin
        last_delivered := d;
        last_progress := now ()
      end
      else if now () -. !last_progress > stall_timeout then begin
        stalled := true;
        running := false
      end
    end
  done;
  let t_end = now () in
  let window = t_end -. t0 in
  let alloc = Gc.allocated_bytes () -. alloc0 in
  let hub_cpu = Procfs.sub (Procfs.self_cpu ()) hub_cpu0 in
  let ep_cpu =
    let e1 = ep_cpu () in
    Array.init endpoints (fun p ->
        let c = Procfs.sub e1.(p) ep_cpu0.(p) in
        if p = victim then Procfs.add !ended_cpu c else c)
  in
  let ep_hwm =
    Array.init endpoints (fun p ->
        let h = match f.pids.(p) with Some pid -> Procfs.hwm_mb pid | None -> 0. in
        if p = victim then Float.max !ended_hwm h else h)
  in
  let hub_hwm = Procfs.hwm_mb 0 in
  let unique_w = float_of_int (max 1 (Live.Hub.unique_delivered hub)) in
  let events_w = float_of_int (count "soak.trace_events") in
  let routed_w = float_of_int (count "proxy.routed") in

  (* ---- heal, drain, check ---- *)
  Live.Hub.set_phase hub None;
  let drained () =
    match Live.Hub.primary hub with
    | None -> false
    | Some v ->
        let g = View.id v in
        let want = Live.Hub.injected_in hub g in
        Proc.Set.for_all
          (fun p -> Live.Hub.delivered_in hub ~proc:p ~gid:g = want)
          (View.set v)
  in
  let deadline = now () +. 30. in
  while (not (drained ())) && (not !stalled) && now () < deadline do
    Live.Hub.poll hub ~timeout:0.005
  done;
  let drain_ok = drained () in
  let drain_s = now () -. t_end in
  (* Snapshot agreement: every connected endpoint's snapshot, compared
     pairwise.  The drained fleet delivers nothing new, so the rounds
     check the same prefixes; the median round is steadier than one. *)
  let want_snaps = Proc.Set.cardinal (Live.Hub.connected hub) in
  let agree () =
    let t = now () in
    Live.Hub.request_snapshots hub;
    while List.length (Live.Hub.snapshots hub) < want_snaps && now () < t +. 5. do
      Live.Hub.poll hub ~timeout:0.005
    done;
    let snaps = Live.Hub.snapshots hub in
    let missing =
      if List.length snaps = want_snaps then []
      else [ Printf.sprintf "%d of %d snapshots arrived" (List.length snaps) want_snaps ]
    in
    (now () -. t, missing @ disagreements snaps)
  in
  let rounds = List.init agree_rounds (fun _ -> agree ()) in
  let verdict_s = drain_s +. Outcome.median (List.map fst rounds) in
  let agree_failures = List.sort_uniq compare (List.concat_map snd rounds) in
  let latency =
    Option.join (List.assoc_opt "soak.latency_ms" (Obs.Metrics.snapshot m).histograms)
  in
  let unique = Live.Hub.unique_delivered hub in
  let lost = count "soak.lost_on_view_change" in
  let violations = Obs.Monitor.violations (Live.Hub.monitor hub) in
  teardown f;
  let replay = if cfg.trace then Some (Replay.run (merged_path cfg)) else None in

  let samples = match latency with Some s -> s.Stats.n | None -> 0 in
  let failures =
    List.map
      (fun v -> Format.asprintf "monitor violation: %a" Obs.Monitor.pp_violation v)
      violations
    @ agree_failures
    @ List.filter_map Fun.id
        [
          (if !stalled then Some "liveness stall" else None);
          (if not drain_ok then Some "final view did not drain" else None);
          (if samples <> unique then
             Some
               (Printf.sprintf "%d latency samples for %d unique deliveries" samples
                  unique)
           else None);
          (match replay with
          | Some k when not k.monitor_clean ->
              Some "a fresh monitor latched replaying the merged trace"
          | _ -> None);
          (match cfg.load with
          | Paced rate ->
              let due = rate *. cfg.window in
              if Float.abs (float_of_int !injected -. due) > 0.005 *. due then
                Some (Printf.sprintf "injected %d messages, %.0f were due" !injected due)
              else if lost > 0 then Some (Printf.sprintf "%d messages lost" lost)
              else None
          | Storm _ when not !respawned -> Some "the victim was not killed and respawned"
          | Storm _ -> None);
        ]
  in
  let fleet_cpu =
    Array.fold_left (fun a c -> a +. Procfs.total c) (Procfs.total hub_cpu) ep_cpu
  in
  let e2e =
    [
      ("setup_s", setup_s);
      ("ops_per_s", unique_w /. window);
      ("verdict_s", verdict_s);
      ("cpu_us_per_op", fleet_cpu *. 1e6 /. unique_w);
      ("alloc_bytes_per_op", alloc /. unique_w);
      ("peak_rss_mb", hub_hwm +. Array.fold_left ( +. ) 0. ep_hwm);
    ]
  in
  let layer =
    match replay with
    | None -> []
    | Some k ->
        Tracer.finish tr;
        Tracer.write tr ~path:spans_path ~workload:name;
        let ep_total = Array.fold_left Procfs.add Procfs.zero ep_cpu in
        let trace_bytes =
          List.fold_left
            (fun n p -> n + (Unix.stat (trace_path cfg p)).st_size)
            !ended_trace_bytes
            (List.init endpoints Fun.id)
        in
        let per_msg x = x /. float_of_int (max 1 unique) in
        let lat f = match latency with Some s -> f s | None -> 0. in
        [
          ("live.hub.cpu_user_ms", hub_cpu.user_s *. 1000.);
          ("live.hub.cpu_sys_ms", hub_cpu.sys_s *. 1000.);
          ("live.hub.cpu_us_per_msg", Procfs.total hub_cpu *. 1e6 /. unique_w);
          ("live.hub.polls", float_of_int (Tracer.calls tr b_poll));
          ("live.hub.poll_ms", Tracer.busy_ms tr b_poll);
          ("live.hub.inject_ms", Tracer.busy_ms tr b_inject);
          ("live.hub.inject_refused", float_of_int !refused);
          ("live.hub.undeliverable", float_of_int (count "soak.undeliverable"));
          ( "live.hub.collector_frac",
            events_w *. (k.decode_ns +. k.parse_ns +. k.feed_ns)
            /. (Procfs.total hub_cpu *. 1e9) );
          ("live.endpoint.cpu_user_ms", ep_total.user_s *. 1000.);
          ("live.endpoint.cpu_sys_ms", ep_total.sys_s *. 1000.);
          ("live.endpoint.cpu_us_per_msg", Procfs.total ep_total *. 1e6 /. unique_w);
          ( "live.endpoint.max_cpu_frac",
            Array.fold_left (fun a c -> Float.max a (Procfs.total c)) 0. ep_cpu
            /. window );
          ("live.endpoint.rss_mb", Array.fold_left ( +. ) 0. ep_hwm);
          ( "live.endpoint.trace_frac",
            events_w *. (k.render_ns +. k.encode_ns) /. (Procfs.total ep_total *. 1e9) );
          ("live.proxy.pkts_per_msg", routed_w /. unique_w);
          ("live.proxy.dropped", float_of_int (count "proxy.dropped"));
          ("live.proxy.duplicated", float_of_int (count "proxy.duplicated"));
          ("live.proxy.reordered", float_of_int (count "proxy.reordered"));
          ("live.proxy.partitioned", float_of_int (count "proxy.partitioned"));
          ("membership.views_issued", float_of_int (count "soak.views_issued"));
          ("membership.disconnects", float_of_int (count "soak.disconnects"));
          ("membership.lost_frac", float_of_int lost /. float_of_int (max 1 !injected));
          ("vs_impl.engine.sequenced_per_msg", per_msg (float_of_int k.sequenced));
          ("vs_impl.engine.deliver_per_msg", per_msg (float_of_int k.delivered));
          ("obs.trace.events_per_msg", per_msg (float_of_int (count "soak.trace_events")));
          ("obs.trace.file_bytes_per_msg", per_msg (float_of_int trace_bytes));
          ("obs.trace.parse_errors", float_of_int (count "soak.trace_parse_errors"));
          ("obs.trace.parse_ns", k.parse_ns);
          ("obs.trace.render_ns", k.render_ns);
          ("obs.monitor.feed_ns", k.feed_ns);
          ("live.wire.trace_encode_ns", k.encode_ns);
          ("live.wire.trace_decode_ns", k.decode_ns);
          ("live.wire.trace_frame_bytes", k.frame_bytes);
          ("live.latency_p50_ms", lat (fun s -> s.p50));
          ("live.latency_p90_ms", lat (fun s -> s.p90));
          ("live.latency_p99_ms", lat (fun s -> s.p99));
          ("live.latency_max_ms", lat (fun s -> s.max));
          ("live.latency_samples", float_of_int samples);
          ( "live.gen_late_p99_ms",
            match !lateness with [] -> 0. | l -> Stats.percentile 0.99 l *. 1000. );
        ]
  in
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    (merged_path cfg :: List.init endpoints (trace_path cfg));
  Outcome.make ~workload:name ~failures ~attempted:(max 1 !injected)
    ~failed:(!injected - unique - lost) ~e2e ~layer

let run cfg ~spans_path =
  let setup_times =
    List.init (cfg.setup_reps - 1) (fun _ ->
        let f, dt = boot cfg in
        teardown f;
        dt)
  in
  let f, dt = boot cfg in
  Fun.protect
    ~finally:(fun () -> Array.iter (Option.iter (reap ~grace:0.)) f.pids)
    (fun () ->
      measure cfg f ~setup_s:(Outcome.median (dt :: setup_times)) ~spans_path)
