(* soak: orchestrate a live multi-process DVS run under churn.

   Spawns N endpoints (one dvsd OS process each, or one domain each
   with --mode domain), plays the membership service and faultable
   transport through Live.Hub, drives open-loop client load through
   calm/storm fault phases, optionally SIGKILLs and respawns an
   endpoint mid-run, and exits nonzero on any online monitor violation,
   liveness stall, snapshot divergence, missed delivery target, or a
   merged trace that is torn, lacks an endpoint's events, or fails an
   offline replay of the standard rules.  A passing run deletes the
   per-endpoint traces and keeps the merged one.

   Writes soak.* metrics (throughput, latency histogram, availability
   samples) as a bench snapshot (--out BENCH_E20.json) whose
   e20.live.msgs_per_sec gauge feeds the bench-trajectory gate. *)

open Prelude

let now () = Unix.gettimeofday ()

type mode = Proc | Dom

let () =
  let endpoints = ref 3 in
  let duration = ref 30. in
  let deliveries = ref 0 in
  let storm = ref false in
  let kill = ref false in
  let mode = ref Proc in
  let seed = ref 1 in
  let rate = ref 0. in
  let max_inflight = ref 2000 in
  let out = ref "" in
  let dir = ref "" in
  let dvsd = ref "" in
  let stall_timeout = ref 10. in
  let specs =
    [
      ("--endpoints", Arg.Set_int endpoints, "N  endpoint count (default 3)");
      ( "--duration",
        Arg.Set_float duration,
        "S  injection window in seconds (default 30)" );
      ( "--deliveries",
        Arg.Set_int deliveries,
        "D  stop injecting once D total deliveries observed (0 = by time)" );
      ("--storm", Arg.Set storm, " alternate calm/storm fault phases");
      ( "--kill",
        Arg.Set kill,
        " SIGKILL one endpoint mid-run and respawn it (proc mode only)" );
      ( "--mode",
        Arg.String
          (function
          | "proc" -> mode := Proc
          | "domain" -> mode := Dom
          | m -> raise (Arg.Bad (Printf.sprintf "unknown mode %S" m))),
        "proc|domain  endpoint isolation (default proc)" );
      ("--seed", Arg.Set_int seed, "N  fault/schedule RNG seed (default 1)");
      ( "--rate",
        Arg.Set_float rate,
        "R  client sends per second (0 = cap-driven open loop)" );
      ( "--max-inflight",
        Arg.Set_int max_inflight,
        "N  in-flight payload cap (default 2000)" );
      ("--out", Arg.Set_string out, "PATH  bench snapshot (BENCH_E20.json)");
      ( "--dir",
        Arg.Set_string dir,
        "DIR  work dir for socket + traces (default: fresh under TMPDIR)" );
      ("--dvsd", Arg.Set_string dvsd, "PATH  dvsd binary (default: sibling)");
      ( "--stall-timeout",
        Arg.Set_float stall_timeout,
        "S  fail if deliveries freeze this long with load outstanding" );
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "soak [options]  -- live multi-process DVS soak";
  if !endpoints < 2 then begin
    prerr_endline "soak: need at least 2 endpoints";
    exit 2
  end;
  if !kill && !mode = Dom then begin
    prerr_endline "soak: --kill needs --mode proc (domains cannot be killed)";
    exit 2
  end;
  let dir =
    if !dir <> "" then begin
      (try Unix.mkdir !dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
      !dir
    end
    else begin
      let d =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "dvs-soak-%d" (Unix.getpid ()))
      in
      (try Unix.mkdir d 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
      d
    end
  in
  let sock = Filename.concat dir "hub.sock" in
  let merged_path = Filename.concat dir "merged.jsonl" in
  let trace_path p = Filename.concat dir (Printf.sprintf "trace-%d.jsonl" p) in
  let dvsd_bin =
    if !dvsd <> "" then !dvsd
    else Filename.concat (Filename.dirname Sys.executable_name) "dvsd.exe"
  in
  let universe = Proc.Set.universe !endpoints in
  let hub =
    Live.Hub.create
      {
        Live.Hub.sock_path = sock;
        universe;
        seed = !seed;
        merged_path = Some merged_path;
      }
  in
  let metrics = Live.Hub.metrics hub in

  (* ---- endpoint lifecycle ---- *)
  let pids = Array.make !endpoints None in
  let domains = ref [] in
  let spawn p =
    match !mode with
    | Proc ->
        let pid =
          Unix.create_process dvsd_bin
            [|
              dvsd_bin;
              "--proc";
              string_of_int p;
              "--connect";
              sock;
              "--trace";
              trace_path p;
            |]
            Unix.stdin Unix.stdout Unix.stderr
        in
        pids.(p) <- Some pid
    | Dom ->
        domains :=
          Live.Endpoint.spawn_domain
            {
              Live.Endpoint.me = p;
              sock_path = sock;
              trace_path = Some (trace_path p);
              retransmit_s = 0.2;
            }
          :: !domains
  in
  for p = 0 to !endpoints - 1 do
    spawn p
  done;

  (* ---- wait for the fleet to form its first full view ---- *)
  let deadline = now () +. 15. in
  let rec wait_fleet () =
    Live.Hub.poll hub ~timeout:0.01;
    match Live.Hub.primary hub with
    | Some v when Proc.Set.cardinal (View.set v) = !endpoints -> ()
    | _ ->
        if now () > deadline then begin
          prerr_endline "soak: endpoints failed to connect and form a view";
          Live.Hub.shutdown hub;
          exit 1
        end
        else wait_fleet ()
  in
  wait_fleet ();
  Printf.printf "soak: %d endpoints up (%s mode), view formed\n%!" !endpoints
    (match !mode with Proc -> "proc" | Dom -> "domain");

  (* ---- fault phase timeline ---- *)
  let phase_at =
    if not !storm then fun _ -> None
    else begin
      let rng = Random.State.make [| !seed |] in
      let plan =
        Sim.Faults.schedule rng ~universe ~phases:5 ~steps_per_phase:1
      in
      let nphases = List.length plan in
      let phase_seconds = !duration /. float_of_int nphases in
      let tl = Sim.Faults.timeline ~phase_seconds plan in
      fun elapsed -> Some (tl elapsed)
    end
  in

  (* ---- main loop ---- *)
  let t0 = now () in
  let injected = ref 0 in
  let current_phase = ref None in
  let stalled = ref false in
  let last_progress = ref (now ()) in
  let last_delivered = ref 0 in
  let last_avail = ref 0. in
  let avail_sum = ref 0. in
  let avail_n = ref 0 in
  let kill_at = t0 +. (0.4 *. !duration) in
  let respawn_at = t0 +. (0.55 *. !duration) in
  let victim = !endpoints - 1 in
  let killed = ref false in
  let respawned = ref false in
  let target_met () = !deliveries > 0 && Live.Hub.delivered_total hub >= !deliveries in
  let inflight () =
    !injected
    - Live.Hub.unique_delivered hub
    - Obs.Metrics.count metrics "soak.lost_on_view_change"
  in
  let running = ref true in
  while !running do
    let el = now () -. t0 in
    if el >= !duration || target_met () then running := false
    else begin
      Live.Hub.poll hub ~timeout:0.002;
      (* phases *)
      (match phase_at el with
      | Some ph
        when (match !current_phase with
             | Some cur -> cur != ph
             | None -> true) ->
          current_phase := Some ph;
          Printf.printf "soak: t=%.1fs entering %s\n%!" el ph.Sim.Faults.label;
          Live.Hub.set_phase hub (Some ph)
      | _ -> ());
      (* kill / respawn *)
      if !kill && not !killed && now () >= kill_at then begin
        (match pids.(victim) with
        | Some pid ->
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            pids.(victim) <- None;
            Obs.Metrics.incr metrics "soak.kills";
            Printf.printf "soak: t=%.1fs SIGKILL endpoint %d\n%!" el victim
        | None -> ());
        killed := true
      end;
      if !killed && not !respawned && now () >= respawn_at then begin
        spawn victim;
        Obs.Metrics.incr metrics "soak.respawns";
        Printf.printf "soak: t=%.1fs respawn endpoint %d\n%!" el victim;
        respawned := true
      end;
      (* open-loop injection *)
      let budget =
        let cap = !max_inflight - inflight () in
        let by_rate =
          if !rate <= 0. then max_int
          else int_of_float (!rate *. el) - !injected
        in
        min 256 (min cap by_rate)
      in
      let ok = ref true in
      for _ = 1 to budget do
        if !ok then
          if Live.Hub.inject hub (Printf.sprintf "m%d" !injected) then
            incr injected
          else ok := false
      done;
      (* availability sample, ~10 Hz *)
      if now () -. !last_avail >= 0.1 then begin
        last_avail := now ();
        let a = Live.Hub.availability_sample hub in
        avail_sum := !avail_sum +. a;
        incr avail_n
      end;
      (* liveness: delivered must keep moving while load is outstanding *)
      let d = Live.Hub.delivered_total hub in
      if d > !last_delivered || inflight () = 0 then begin
        last_delivered := d;
        last_progress := now ()
      end
      else if now () -. !last_progress > !stall_timeout then begin
        stalled := true;
        running := false
      end
    end
  done;
  let inject_elapsed = now () -. t0 in

  (* ---- drain: heal, stop injecting, let the tail complete ---- *)
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
  let drain_deadline = now () +. 30. in
  while (not (drained ())) && (not !stalled) && now () < drain_deadline do
    Live.Hub.poll hub ~timeout:0.01
  done;
  let drain_ok = drained () in

  (* ---- snapshots: totally-ordered prefixes must agree byte-for-byte ---- *)
  Live.Hub.request_snapshots hub;
  let snap_deadline = now () +. 5. in
  let want_snaps = Proc.Set.cardinal (Live.Hub.connected hub) in
  while
    List.length (Live.Hub.snapshots hub) < want_snaps
    && now () < snap_deadline
  do
    Live.Hub.poll hub ~timeout:0.01
  done;
  let snaps = Live.Hub.snapshots hub in
  let snap_errors = ref [] in
  let check_pair (p1, vs1) (p2, vs2) =
    List.iter
      (fun (g, prefix1) ->
        match List.assoc_opt g vs2 with
        | None -> ()
        | Some prefix2 ->
            let n = min (List.length prefix1) (List.length prefix2) in
            let cut l = List.filteri (fun i _ -> i < n) l in
            let b1 = Check.Codec.encode Live.Wire.prefix_codec (cut prefix1) in
            let b2 = Check.Codec.encode Live.Wire.prefix_codec (cut prefix2) in
            if not (Bytes.equal b1 b2) then
              snap_errors :=
                Printf.sprintf
                  "endpoints %d and %d disagree on view %s's prefix (%d common)"
                  p1 p2 (Gid.to_string g) n
                :: !snap_errors)
      vs1
  in
  let rec pairs = function
    | [] -> ()
    | s :: rest ->
        List.iter (check_pair s) rest;
        pairs rest
  in
  pairs snaps;

  (* ---- teardown ---- *)
  Live.Hub.shutdown hub;
  (match !mode with
  | Proc ->
      Array.iteri
        (fun _ pid ->
          match pid with
          | None -> ()
          | Some pid ->
              let dead = ref false in
              let d = now () +. 3. in
              while (not !dead) && now () < d do
                match Unix.waitpid [ WNOHANG ] pid with
                | 0, _ -> ignore (Unix.select [] [] [] 0.02)
                | _ -> dead := true
                | exception Unix.Unix_error (ECHILD, _, _) -> dead := true
              done;
              if not !dead then begin
                (try Unix.kill pid Sys.sigkill
                 with Unix.Unix_error _ -> ());
                try ignore (Unix.waitpid [] pid)
                with Unix.Unix_error _ -> ()
              end)
        pids
  | Dom -> List.iter Domain.join !domains);

  (* ---- verdict + bench snapshot ---- *)
  let delivered = Live.Hub.delivered_total hub in
  let unique = Live.Hub.unique_delivered hub in
  let elapsed = inject_elapsed in
  let msgs_per_sec =
    if elapsed > 0. then float_of_int delivered /. elapsed else 0.
  in
  let availability =
    if !avail_n > 0 then !avail_sum /. float_of_int !avail_n else 1.
  in
  let violations = Obs.Monitor.violations (Live.Hub.monitor hub) in
  Obs.Metrics.set metrics "e20.live.msgs_per_sec" msgs_per_sec;
  Obs.Metrics.set metrics "e20.live.delivered" (float_of_int delivered);
  Obs.Metrics.set metrics "e20.live.unique_msgs" (float_of_int unique);
  Obs.Metrics.set metrics "e20.live.endpoints" (float_of_int !endpoints);
  Obs.Metrics.set metrics "e20.live.elapsed_s" elapsed;
  Obs.Metrics.set metrics "e20.live.availability" availability;
  if !out <> "" then
    Obs.Metrics.write_file ~path:!out (Obs.Metrics.snapshot metrics);
  Printf.printf
    "soak: %d deliveries (%d unique msgs) in %.1fs = %.0f msgs/s, \
     availability %.3f, %d views, %d kills\n\
     %!"
    delivered unique elapsed msgs_per_sec availability
    (Obs.Metrics.count metrics "soak.views_issued")
    (Obs.Metrics.count metrics "soak.kills");
  let fail = ref false in
  if violations <> [] then begin
    fail := true;
    List.iter
      (fun v ->
        Printf.printf "soak: MONITOR VIOLATION %s\n%!"
          (Format.asprintf "%a" Obs.Monitor.pp_violation v))
      violations
  end;
  if !stalled then begin
    fail := true;
    Printf.printf "soak: FAIL liveness stall (no progress for %.0fs)\n%!"
      !stall_timeout
  end;
  if not drain_ok then begin
    fail := true;
    Printf.printf "soak: FAIL final view did not drain\n%!"
  end;
  List.iter
    (fun e ->
      fail := true;
      Printf.printf "soak: FAIL snapshot: %s\n%!" e)
    !snap_errors;
  if !deliveries > 0 && delivered < !deliveries then begin
    fail := true;
    Printf.printf "soak: FAIL delivery target %d not reached (%d)\n%!"
      !deliveries delivered
  end;
  (* The merged trace, checked offline: it must decode whole, hold
     events from every endpoint, and pass a fresh run of the standard
     rules over the whole stream (online, each endpoint checked only
     its own events, and the hub only the cross-endpoint ones). *)
  let replay = Obs.Monitor.create (Obs.Monitor.standard ()) in
  let names = List.map (fun p -> (Proc.to_string p, p)) (Proc.Set.elements universe) in
  let contributed, torn =
    In_channel.with_open_bin merged_path (fun ic ->
        Obs.Trace.fold_jsonl_prefix ic Proc.Set.empty (fun seen e ->
            ignore (Obs.Monitor.feed replay e);
            match Obs.Trace.payload_str "p" e with
            | Some name when String.equal e.Obs.Trace.component "vs.engine" -> (
                match List.assoc_opt name names with
                | Some p -> Proc.Set.add p seen
                | None -> seen)
            | _ -> seen))
  in
  (match torn with
  | Some (line, why) ->
      fail := true;
      Printf.printf "soak: FAIL merged trace torn at line %d: %s\n%!" line why
  | None -> ());
  Proc.Set.iter
    (fun p ->
      fail := true;
      Printf.printf "soak: FAIL merged trace holds no events of endpoint %d\n%!"
        p)
    (Proc.Set.diff universe contributed);
  List.iter
    (fun v ->
      fail := true;
      Printf.printf "soak: FAIL merged-trace replay: %s\n%!"
        (Format.asprintf "%a" Obs.Monitor.pp_violation v))
    (Obs.Monitor.violations replay);
  if !fail then exit 1;
  Printf.printf "soak: OK\n%!";
  (* A passing run keeps only the merged trace, which holds every whole
     line of the per-endpoint files; a failing one keeps them all. *)
  Proc.Set.iter
    (fun p -> try Sys.remove (trace_path p) with Sys_error _ -> ())
    universe
