(* Crash/restart end-to-end over real OS processes: three dvsd daemons,
   SIGKILL one under load, the survivors must form a new view and keep
   delivering, the victim respawns and rejoins, the final view drains,
   and the totally-ordered prefixes of all three agree byte-for-byte
   (framed codec images).  The SIGKILL'd daemon's crash-safe JSONL trace
   must decode as a clean prefix, and the hub's merged trace must hold
   exactly its whole lines — plus a deterministic torn-file test for
   [Obs.Trace.read_jsonl_prefix] itself. *)

open Prelude
module W = Live.Wire

let dvsd_exe = Filename.concat (Filename.concat ".." "bin") "dvsd.exe"

let now () = Unix.gettimeofday ()

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dvs-test-%s-%d" tag (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  dir

(* ------------------------------------------------------------------ *)
(* Torn JSONL traces                                                   *)
(* ------------------------------------------------------------------ *)

let sample_events n =
  let buf = Buffer.create 256 in
  let sink =
    Obs.Trace.callback (fun e ->
        Buffer.add_string buf (Obs.Trace.event_to_string e);
        Buffer.add_char buf '\n')
  in
  for i = 1 to n do
    Obs.Trace.point sink ~component:"test" ~cls:"tick"
      [ ("i", Obs.Trace.Int i) ]
  done;
  Buffer.contents buf

let test_torn_trace_decodes () =
  let whole = sample_events 20 in
  (* cut the file mid-way through the last line, as a SIGKILL between
     write and flush would *)
  let cut = String.length whole - 7 in
  let dir = fresh_dir "torn" in
  let path = Filename.concat dir "torn.jsonl" in
  let oc = open_out path in
  output_string oc (String.sub whole 0 cut);
  close_out oc;
  let ic = open_in path in
  let events, torn = Obs.Trace.read_jsonl_prefix ic in
  close_in ic;
  Alcotest.(check int) "all complete lines decoded" 19 (List.length events);
  (match torn with
  | Some (line, _) -> Alcotest.(check int) "torn line reported" 20 line
  | None -> Alcotest.fail "truncated tail not reported");
  (* a clean file has no leftover *)
  let path' = Filename.concat dir "clean.jsonl" in
  let oc = open_out path' in
  output_string oc whole;
  close_out oc;
  let ic = open_in path' in
  let events, torn = Obs.Trace.read_jsonl_prefix ic in
  close_in ic;
  Alcotest.(check int) "clean file decodes fully" 20 (List.length events);
  Alcotest.(check bool) "no leftover" true (torn = None)

(* ------------------------------------------------------------------ *)
(* Live crash/restart                                                  *)
(* ------------------------------------------------------------------ *)

let spawn_dvsd ~sock ~trace p =
  Unix.create_process dvsd_exe
    [|
      dvsd_exe;
      "--proc";
      string_of_int p;
      "--connect";
      sock;
      "--trace";
      trace;
      "--retransmit-ms";
      "50";
    |]
    Unix.stdin Unix.stdout Unix.stderr

let reap pid =
  let deadline = now () +. 5. in
  let dead = ref false in
  while (not !dead) && now () < deadline do
    match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ -> ignore (Unix.select [] [] [] 0.02)
    | _ -> dead := true
    | exception Unix.Unix_error (ECHILD, _, _) -> dead := true
  done;
  if not !dead then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  end

let test_crash_restart () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = fresh_dir "crash" in
  let sock = Filename.concat dir "hub.sock" in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let trace p = Filename.concat dir (Printf.sprintf "trace-%d.jsonl" p) in
  let universe = Proc.Set.universe 3 in
  let merged = Filename.concat dir "merged.jsonl" in
  let hub =
    Live.Hub.create
      {
        Live.Hub.sock_path = sock;
        universe;
        seed = 5;
        merged_path = Some merged;
      }
  in
  let pids = Array.init 3 (fun p -> spawn_dvsd ~sock ~trace:(trace p) p) in
  let members () =
    match Live.Hub.primary hub with
    | Some v -> Proc.Set.cardinal (View.set v)
    | None -> 0
  in
  let wait_members ?(deadline = 15.) n =
    let t = now () +. deadline in
    while members () <> n && now () < t do
      Live.Hub.poll hub ~timeout:0.01
    done;
    Alcotest.(check int)
      (Printf.sprintf "%d-member view formed" n)
      n (members ())
  in
  wait_members 3;
  (* load the fleet, then SIGKILL endpoint 2 while traffic is flowing *)
  let injected = ref 0 in
  let pump ?(inject = true) until =
    while now () < until do
      if inject && Live.Hub.inject hub (Printf.sprintf "m%d" !injected) then
        incr injected;
      Live.Hub.poll hub ~timeout:0.002
    done
  in
  pump (now () +. 1.0);
  Unix.kill pids.(2) Sys.sigkill;
  ignore (Unix.waitpid [] pids.(2));
  let before = Live.Hub.delivered_total hub in
  (* the survivors re-form and delivery resumes without the victim *)
  wait_members 2;
  pump (now () +. 1.0);
  Alcotest.(check bool) "delivery resumed after the crash" true
    (Live.Hub.delivered_total hub > before);
  (* the victim's crash-safe trace decodes as a clean prefix *)
  let ic = open_in (trace 2) in
  let events, _torn = Obs.Trace.read_jsonl_prefix ic in
  close_in ic;
  Alcotest.(check bool) "victim's trace has decodable events" true
    (events <> []);
  List.iter
    (fun e ->
      match Obs.Trace.event_of_string (Obs.Trace.event_to_string e) with
      | Ok _ -> ()
      | Error err -> Alcotest.failf "victim event does not round-trip: %s" err)
    events;
  (* its file at death, as the hub merges it: whole lines only *)
  let victim_file =
    let s = In_channel.with_open_bin (trace 2) In_channel.input_all in
    match String.rindex_opt s '\n' with
    | None -> []
    | Some i ->
        List.map
          (fun line ->
            match Obs.Trace.event_of_string line with
            | Ok e -> e
            | Error err -> Alcotest.failf "victim line does not decode: %s" err)
          (String.split_on_char '\n' (String.sub s 0 i))
  in
  (* respawn: the fleet re-forms at 3 and keeps delivering *)
  pids.(2) <- spawn_dvsd ~sock ~trace:(trace 2) 2;
  wait_members 3;
  pump (now () +. 1.0);
  (* drain the final view *)
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
  let t = now () +. 20. in
  while (not (drained ())) && now () < t do
    Live.Hub.poll hub ~timeout:0.01
  done;
  Alcotest.(check bool) "final view drained" true (drained ());
  (* totally-ordered prefixes agree byte-for-byte across all three *)
  Live.Hub.request_snapshots hub;
  let t = now () +. 5. in
  while List.length (Live.Hub.snapshots hub) < 3 && now () < t do
    Live.Hub.poll hub ~timeout:0.01
  done;
  let snaps = Live.Hub.snapshots hub in
  Alcotest.(check int) "three snapshots" 3 (List.length snaps);
  let compared = ref 0 in
  List.iter
    (fun (p1, vs1) ->
      List.iter
        (fun (p2, vs2) ->
          if p1 < p2 then
            List.iter
              (fun (g, prefix1) ->
                match List.assoc_opt g vs2 with
                | None -> ()
                | Some prefix2 ->
                    incr compared;
                    let n =
                      min (List.length prefix1) (List.length prefix2)
                    in
                    let cut l = List.filteri (fun i _ -> i < n) l in
                    Alcotest.(check bool)
                      (Printf.sprintf
                         "view %s: common prefix of %d and %d agrees"
                         (Gid.to_string g) p1 p2)
                      true
                      (Bytes.equal
                         (Check.Codec.encode W.prefix_codec (cut prefix1))
                         (Check.Codec.encode W.prefix_codec (cut prefix2))))
              vs1)
        snaps)
    snaps;
  Alcotest.(check bool) "some prefixes were actually compared" true
    (!compared > 0);
  Alcotest.(check bool) "monitors clean across crash and rejoin" true
    (Live.Hub.ok hub);
  Live.Hub.shutdown hub;
  Array.iter reap pids;
  (* The hub appends an endpoint's trace file to the merged trace when
     its connection ends — for the victim, at the SIGKILL, before the
     respawn reopens the file — so the victim's first-life events in the
     merged file are exactly the whole lines of its file at death.  The
     respawned victim's events follow, numbered from seq 0 again. *)
  let ic = open_in merged in
  let all, torn = Obs.Trace.read_jsonl_prefix ic in
  close_in ic;
  Alcotest.(check bool) "merged file complete after shutdown" true
    (torn = None);
  let from_victim =
    List.filter
      (fun (e : Obs.Trace.event) ->
        String.equal e.component "vs.engine"
        && List.assoc_opt "p" e.payload = Some (Obs.Trace.Str "p2"))
      all
  in
  let rec first_life prev = function
    | (e : Obs.Trace.event) :: rest when e.seq > prev ->
        e :: first_life e.seq rest
    | _ -> []
  in
  let merged_before_kill = first_life (-1) from_victim in
  Alcotest.(check bool) "the hub merged events from the victim" true
    (merged_before_kill <> []);
  Alcotest.(check bool)
    (Printf.sprintf "%d merged victim events equal its %d file events"
       (List.length merged_before_kill)
       (List.length victim_file))
    true
    (List.equal Obs.Trace.equal_event merged_before_kill victim_file)

let () =
  Alcotest.run "live-crash"
    [
      ( "trace",
        [ Alcotest.test_case "torn-file-decodes" `Quick test_torn_trace_decodes ] );
      ( "e2e",
        [ Alcotest.test_case "crash-restart" `Quick test_crash_restart ] );
    ]
