(* Monitor false-positive/false-negative audit.

   The online rules ([Obs.Monitor.standard]) are only trustworthy if
   (a) clean executions — including ones over a faulty transport, where
   drops, duplicates and reorders are the *channel's* business, not a
   protocol violation — never latch anything, and (b) the seeded
   defects still latch when their counterexample schedules are
   re-driven through the instrumented stack online.

   Golden streams come from random generative executions of every
   registry entry that ships an [instrumented_step]; defect streams
   come from replaying the committed [corpus/*.cex.jsonl] schedules and
   re-stepping the resolved actions through the same hook with a
   monitor sink attached. *)

module An = Analysis.Analyzer
module Reg = Analysis.Registry

let registry () = Reg.all () @ Reg.defects ()

let instrumented (Reg.Entry e) = e.subject.An.instrumented_step <> None

(* Re-drive an execution's steps through the entry's instrumented step
   with [sink] attached; checks the re-step agrees with the recorded
   post-states (the hook's contract). *)
let restep (type s a) (sub : (s, a) An.subject) sink
    (exec : (s, a) Ioa.Exec.t) =
  match sub.An.instrumented_step with
  | None -> Alcotest.fail "entry ships no instrumented_step"
  | Some step ->
      List.iter
        (fun (st : (s, a) Ioa.Exec.step) ->
          let post = step sink st.pre st.action in
          Alcotest.(check string)
            "instrumented re-step agrees with the recorded transition"
            (sub.An.key st.post) (sub.An.key post))
        exec.steps

(* ------------------------------------------------------------------ *)
(* Golden clean runs: zero latches                                     *)
(* ------------------------------------------------------------------ *)

let audit_clean (Reg.Entry e) =
  let sub = e.subject in
  let fed = ref 0 in
  (* several seeds, decent length: the stream must include real
     sequencing and delivery activity or the audit is vacuous *)
  List.iter
    (fun seed ->
      let m = Obs.Monitor.create (Obs.Monitor.standard ()) in
      let sink = Obs.Monitor.sink m in
      let rng = Random.State.make [| seed |] in
      let exec, _ =
        Ioa.Exec.run sub.An.automaton ~rng ~steps:400 ~init:sub.An.init
      in
      restep sub sink exec;
      fed := !fed + Obs.Monitor.events_seen m;
      match Obs.Monitor.violations m with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "%s (seed %d): spurious latch: %s" e.name seed
            (Format.asprintf "%a" Obs.Monitor.pp_violation v))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool)
    (e.name ^ ": audit actually saw events")
    true (!fed > 0)

let test_clean_runs () =
  let entries = List.filter instrumented (Reg.all ()) in
  Alcotest.(check bool)
    "some clean entries ship the instrumentation hook" true (entries <> []);
  List.iter audit_clean entries

(* the faulty-transport entry is the critical false-positive case:
   channel drops/duplicates/reorders must never read as protocol bugs *)
let test_faulty_transport_is_clean () =
  match Reg.find (Reg.all ()) "vs-stack-faulty" with
  | None -> Alcotest.fail "vs-stack-faulty entry missing"
  | Some e ->
      Alcotest.(check bool) "ships the hook" true (instrumented e);
      audit_clean e

(* ------------------------------------------------------------------ *)
(* Corpus replay: seeded defects must (only) latch as expected         *)
(* ------------------------------------------------------------------ *)

let corpus_files () =
  let dir = Filename.concat ".." "corpus" in
  if Sys.file_exists dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cex.jsonl")
    |> List.map (Filename.concat dir)
    |> List.sort String.compare
  else []

(* per corpus entry: which standard rule (if any) must latch when the
   schedule runs under online monitoring *)
let expected_latch = function
  | "defect-no-dedup" | "defect-no-dedup-invariant" ->
      Some "unique-sequencing"
  | _ -> None (* e.g. defect-no-retransmit: a deadlock, not a trace bug *)

let audit_record (r : Check.Cex.t) =
  match Reg.find (registry ()) r.Check.Cex.entry with
  | None -> Alcotest.failf "corpus names unknown entry %S" r.Check.Cex.entry
  | Some (Reg.Entry e) ->
      let sub = e.subject in
      let o = An.oracle sub ~seed:r.Check.Cex.seed in
      let v = Check.Shrink.replay o r.Check.Cex.actions in
      (match v.Check.Shrink.error with
      | Some (i, msg) ->
          Alcotest.failf "%s: schedule no longer resolves at %d: %s" e.name i
            msg
      | None -> ());
      let m = Obs.Monitor.create (Obs.Monitor.standard ()) in
      let sink = Obs.Monitor.sink m in
      restep sub sink v.Check.Shrink.exec;
      match expected_latch e.name with
      | Some rule -> (
          Alcotest.(check bool)
            (e.name ^ ": audit saw events")
            true
            (Obs.Monitor.events_seen m > 0);
          match Obs.Monitor.violations m with
          | [] ->
              Alcotest.failf
                "%s: the defect schedule did not latch %s online" e.name rule
          | vs ->
              Alcotest.(check bool)
                (e.name ^ ": latched the expected rule")
                true
                (List.exists
                   (fun v -> String.equal v.Obs.Monitor.rule rule)
                   vs))
      | None -> (
          match Obs.Monitor.violations m with
          | [] -> ()
          | v :: _ ->
              Alcotest.failf "%s: spurious latch on a liveness defect: %s"
                e.name
                (Format.asprintf "%a" Obs.Monitor.pp_violation v))

let test_corpus_audit () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus present" true (files <> []);
  let audited = ref 0 in
  List.iter
    (fun path ->
      match Check.Cex.load ~path with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok rs ->
          List.iter
            (fun r ->
              audit_record r;
              incr audited)
            rs)
    files;
  Alcotest.(check bool) "audited at least the three seeded defects" true
    (!audited >= 3)

(* the no-dedup latch must fire *online* — on the violating event, not
   only at end of stream *)
let test_no_dedup_latches_mid_stream () =
  let r =
    corpus_files ()
    |> List.concat_map (fun path ->
           match Check.Cex.load ~path with Ok rs -> rs | Error _ -> [])
    |> List.find_opt (fun r ->
           String.equal r.Check.Cex.entry "defect-no-dedup")
  in
  match r with
  | None -> Alcotest.fail "defect-no-dedup not in the corpus"
  | Some r -> (
      match Reg.find (registry ()) "defect-no-dedup" with
      | None -> Alcotest.fail "defect-no-dedup entry missing"
      | Some (Reg.Entry e) -> (
          let sub = e.subject in
          let o = An.oracle sub ~seed:r.Check.Cex.seed in
          let v = Check.Shrink.replay o r.Check.Cex.actions in
          let m = Obs.Monitor.create (Obs.Monitor.standard ()) in
          let tripped_at = ref None in
          let seen = ref 0 in
          let sink =
            Obs.Trace.callback (fun ev ->
                incr seen;
                match (Obs.Monitor.feed m ev, !tripped_at) with
                | [], _ | _, Some _ -> ()
                | _ :: _, None -> tripped_at := Some !seen)
          in
          (match sub.An.instrumented_step with
          | Some step ->
              List.iter
                (fun (st : _ Ioa.Exec.step) ->
                  ignore (step sink st.pre st.action))
                v.Check.Shrink.exec.steps
          | None -> Alcotest.fail "no instrumented_step");
          match !tripped_at with
          | None -> Alcotest.fail "never latched"
          | Some at ->
              (* [feed] flagged the violating event the moment it arrived
                 (not a post-mortem scan), and the rule stays latched:
                 later events complete no further violations *)
              Alcotest.(check bool) "flagged on an event in the stream" true
                (at >= 1 && at <= !seen);
              let benign =
                {
                  Obs.Trace.seq = 999_999;
                  kind = Obs.Trace.Point;
                  component = "vs.engine";
                  cls = "sequenced";
                  span = None;
                  payload =
                    [
                      ("p", Obs.Trace.Str "p0");
                      ("gid", Obs.Trace.Str "g9");
                      ("src", Obs.Trace.Str "p0");
                      ("fsn", Obs.Trace.Int 1);
                      ("sn", Obs.Trace.Int 1);
                    ];
                }
              in
              Alcotest.(check int) "latched: no further reports" 0
                (List.length (Obs.Monitor.feed m benign))))

(* ------------------------------------------------------------------ *)
(* Compact rule state vs. the table-based rules it replaced            *)
(* ------------------------------------------------------------------ *)

(* The oracle: the original [unique_sequencing] / [prefix_consistent],
   one string-keyed table entry per message. *)
let p_int key (e : Obs.Trace.event) =
  match List.assoc_opt key e.Obs.Trace.payload with
  | Some (Obs.Trace.Int n) -> Some n
  | _ -> None

let p_str key (e : Obs.Trace.event) =
  match List.assoc_opt key e.Obs.Trace.payload with
  | Some (Obs.Trace.Str s) -> Some s
  | _ -> None

let oracle_unique_sequencing () =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  Obs.Monitor.rule ~name:"unique-sequencing" (fun e ->
      if String.equal e.Obs.Trace.cls "sequenced" then
        match (p_str "p" e, p_str "gid" e, p_str "src" e, p_int "fsn" e) with
        | Some p, Some gid, Some src, Some fsn ->
            let k = Printf.sprintf "%s|%s|%s|%d" p gid src fsn in
            if Hashtbl.mem seen k then
              Some
                (Printf.sprintf
                   "forward (src %s, view %s, fsn %d) sequenced twice at %s"
                   src gid fsn p)
            else begin
              Hashtbl.add seen k ();
              None
            end
        | _ -> None
      else None)

let oracle_prefix_consistent () =
  let order : (string, string) Hashtbl.t = Hashtbl.create 64 in
  Obs.Monitor.rule ~name:"prefix-consistent" (fun e ->
      if String.equal e.Obs.Trace.cls "deliver" then
        match (p_str "gid" e, p_int "sn" e, p_str "origin" e, p_str "msg" e)
        with
        | Some gid, Some sn, Some origin, Some msg -> (
            let k = Printf.sprintf "%s|%d" gid sn in
            let entry = origin ^ ":" ^ msg in
            match Hashtbl.find_opt order k with
            | Some prior when not (String.equal prior entry) ->
                Some
                  (Printf.sprintf
                     "view %s position %d delivered as %s by one member and \
                      %s by another"
                     gid sn prior entry)
            | Some _ -> None
            | None ->
                Hashtbl.add order k entry;
                None)
        | _ -> None
      else None)

(* Random streams shaped like the live hub's: per-key counters advance
   1, 2, 3, … (the faithful case) and are perturbed by duplicates,
   reorders, gaps, far jumps (the sparse positions, later overtaken by
   the dense array), non-positive and huge numbers, conflicting
   entries, entries whose "origin:msg" images collide, and malformed
   payloads.  Names never contain '|', the oracle's key separator. *)
let huge = [| max_int; max_int - 1; min_int; 1 lsl 40; 1 lsl 62 |]

let gen_stream st =
  let pick a = a.(Random.State.int st (Array.length a)) in
  (* few keys make long runs: positions grow past the far jumps *)
  let some a = Array.sub a 0 (1 + Random.State.int st (Array.length a)) in
  let procs = some [| "p0"; "p1"; "p2" |]
  and gids = some [| "g1"; "g2"; "g3" |] in
  (* per-stream noise, so some streams stay clean to the end *)
  let dup_pct = pick [| 0; 0; 1; 5 |]
  and conflict_pct = pick [| 0; 0; 1; 4 |] in
  let next = Hashtbl.create 16 and owed = Hashtbl.create 16 in
  let counter k = Option.value ~default:1 (Hashtbl.find_opt next k) in
  let bump k n = Hashtbl.replace next k n in
  let number k =
    let c = counter k in
    match (Hashtbl.find_opt owed k, Random.State.int st 100) with
    | Some n, r when r < 50 ->
        (* the late half of a reorder *)
        Hashtbl.remove owed k;
        n
    | _, r when r < dup_pct -> 1 + Random.State.int st (max 1 (c - 1))
    | _, r when r < 80 ->
        bump k (c + 1);
        c
    | None, r when r < 86 ->
        (* reorder: the successor first, the position itself later *)
        bump k (c + 2);
        Hashtbl.replace owed k c;
        c + 1
    | _, r when r < 90 ->
        (* gap: a position never sent *)
        bump k (c + 2);
        c + 1
    | _, r when r < 96 -> c + 20 + Random.State.int st 80 (* far jump *)
    | _, r when r < 98 -> - Random.State.int st 3
    | _ -> pick huge
  in
  let len = 1 + Random.State.int st 400 in
  List.init len (fun seq ->
      let cls, payload =
        if Random.State.bool st then
          let p = pick procs and gid = pick gids and src = pick procs in
          let fsn = number (p ^ gid ^ src) in
          ( "sequenced",
            [
              ("p", Obs.Trace.Str p);
              ("gid", Obs.Trace.Str gid);
              ("src", Obs.Trace.Str src);
              ("fsn", Obs.Trace.Int fsn);
            ] )
        else
          (* every member walks each view's positions *)
          let p = pick procs and gid = pick gids in
          let sn = number (p ^ gid) in
          let origin, msg =
            if Random.State.int st 100 >= conflict_pct then
              ("p0", Printf.sprintf "m%d" sn)
            else
              pick
                [|
                  ("p1", Printf.sprintf "m%d" sn);
                  ("p0", Printf.sprintf "n%d" sn);
                  ("p1", "x");
                  ("p0", "a:b");
                  ("p0:a", "b");
                |]
          in
          ( "deliver",
            [
              ("p", Obs.Trace.Str p);
              ("gid", Obs.Trace.Str gid);
              ("sn", Obs.Trace.Int sn);
              ("origin", Obs.Trace.Str origin);
              ("msg", Obs.Trace.Str msg);
            ] )
      in
      let payload =
        if Random.State.int st 50 = 0 then
          (* malformed: a field missing or of the wrong type *)
          match payload with
          | _ :: rest when Random.State.bool st -> rest
          | (k, _) :: rest -> (k, Obs.Trace.Int 0) :: rest
          | [] -> []
        else payload
      in
      {
        Obs.Trace.seq;
        kind = Obs.Trace.Point;
        component = "vs.engine";
        cls;
        span = None;
        payload;
      })

(* index and reason of the first violation, if any *)
let first_latch rule events =
  let m = Obs.Monitor.create [ rule ] in
  let rec go i = function
    | [] -> None
    | e :: rest -> (
        match Obs.Monitor.feed m e with
        | v :: _ -> Some (i, v.Obs.Monitor.reason)
        | [] -> go (i + 1) rest)
  in
  go 0 events

let test_compact_rules_match_oracle () =
  let latched = Hashtbl.create 4 and clean = Hashtbl.create 4 in
  let tally tbl name =
    Hashtbl.replace tbl name
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))
  in
  let pp_latch = function
    | None -> "never"
    | Some (i, r) -> Printf.sprintf "event %d: %s" i r
  in
  let prop events =
    List.for_all
      (fun (name, compact, oracle) ->
        let got = first_latch (compact ()) events
        and want = first_latch (oracle ()) events in
        tally (if want = None then clean else latched) name;
        if got = want then true
        else
          QCheck.Test.fail_reportf "%s: compact latched %s, oracle %s" name
            (pp_latch got) (pp_latch want))
      [
        ( "unique-sequencing",
          Obs.Monitor.unique_sequencing,
          oracle_unique_sequencing );
        ( "prefix-consistent",
          Obs.Monitor.prefix_consistent,
          oracle_prefix_consistent );
      ]
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:1000 ~name:"compact = oracle"
       (QCheck.make
          ~print:(fun es -> Printf.sprintf "%d events" (List.length es))
          gen_stream)
       prop);
  (* not vacuous: each rule both latched and stayed clean on many
     streams *)
  List.iter
    (fun name ->
      let n tbl = Option.value ~default:0 (Hashtbl.find_opt tbl name) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d latched, %d clean" name (n latched) (n clean))
        true
        (n latched >= 100 && n clean >= 100))
    [ "unique-sequencing"; "prefix-consistent" ]

(* ------------------------------------------------------------------ *)
(* Checking at the source vs. the whole-stream monitor                 *)
(* ------------------------------------------------------------------ *)

(* The arrangement the live fleet runs: each process's own events (those
   whose "p" names it) through a monitor of its own [Obs.Monitor.local]
   rules, as an endpoint does; every delivery as values through one
   [Obs.Monitor.Prefix], as the hub does with the reports; the events of
   no process (the hub's own) through the monotone rule.  The first
   latch of each rule, as (rule, seq of the latching event), sorted. *)
let split_latches events =
  let locals = Hashtbl.create 4 in
  let local p =
    match Hashtbl.find_opt locals p with
    | Some m -> m
    | None ->
        let m = Obs.Monitor.create (Obs.Monitor.local ()) in
        Hashtbl.add locals p m;
        m
  in
  let prefix = Obs.Monitor.Prefix.create () in
  let hub = Obs.Monitor.create [ Obs.Monitor.monotone_progress () ] in
  let latched = ref [] in
  let latch rule seq =
    if not (List.mem_assoc rule !latched) then latched := (rule, seq) :: !latched
  in
  let record = List.iter (fun v -> latch v.Obs.Monitor.rule v.Obs.Monitor.at_seq) in
  List.iter
    (fun (e : Obs.Trace.event) ->
      (match p_str "p" e with
      | Some p -> record (Obs.Monitor.feed (local p) e)
      | None -> record (Obs.Monitor.feed hub e));
      if String.equal e.cls "deliver" then
        match (p_str "gid" e, p_int "sn" e, p_str "origin" e, p_str "msg" e) with
        | Some gid, Some sn, Some origin, Some msg -> (
            match Obs.Monitor.Prefix.check prefix ~gid ~sn ~origin ~msg with
            | Some _ -> latch Obs.Monitor.Prefix.name e.seq
            | None -> ())
        | _ -> ())
    events;
  List.sort compare !latched

let whole_latches events =
  let m = Obs.Monitor.create (Obs.Monitor.standard ()) in
  List.iter (fun e -> ignore (Obs.Monitor.feed m e)) events;
  List.sort compare
    (List.map (fun v -> (v.Obs.Monitor.rule, v.Obs.Monitor.at_seq))
       (Obs.Monitor.violations m))

let pp_latches l =
  String.concat ", " (List.map (fun (r, s) -> Printf.sprintf "%s@%d" r s) l)

(* Same rules latch, on the same events; returns the latches. *)
let split_agrees what events =
  let want = whole_latches events and got = split_latches events in
  if got <> want then
    Alcotest.failf "%s: split latched [%s], whole stream [%s]" what
      (pp_latches got) (pp_latches want);
  got

let recorded f =
  let acc = ref [] in
  f (Obs.Trace.callback (fun e -> acc := e :: !acc));
  List.rev !acc

let test_split_matches_whole () =
  let deliveries = ref 0 and latches = ref [] in
  let check what events =
    deliveries :=
      !deliveries
      + List.length
          (List.filter (fun (e : Obs.Trace.event) -> e.cls = "deliver") events);
    latches := split_agrees what events @ !latches
  in
  (* golden runs, the faulty-transport entry among them *)
  List.iter
    (fun (Reg.Entry e) ->
      List.iter
        (fun seed ->
          let rng = Random.State.make [| seed |] in
          let exec, _ =
            Ioa.Exec.run e.subject.An.automaton ~rng ~steps:400
              ~init:e.subject.An.init
          in
          check
            (Printf.sprintf "%s seed %d" e.name seed)
            (recorded (fun sink -> restep e.subject sink exec)))
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    (List.filter instrumented (Reg.all ()));
  (* corpus re-drives: the seeded defects' schedules *)
  List.iter
    (fun path ->
      match Check.Cex.load ~path with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok rs ->
          List.iter
            (fun (r : Check.Cex.t) ->
              match Reg.find (registry ()) r.entry with
              | None -> Alcotest.failf "unknown entry %S" r.entry
              | Some (Reg.Entry e) ->
                  let o = An.oracle e.subject ~seed:r.seed in
                  let v = Check.Shrink.replay o r.actions in
                  let events =
                    recorded (fun sink -> restep e.subject sink v.Check.Shrink.exec)
                  in
                  let got = split_agrees r.entry events in
                  if expected_latch r.entry = Some "unique-sequencing" then
                    Alcotest.(check bool)
                      (r.entry ^ ": No_dedup latches at the endpoint")
                      true
                      (List.mem_assoc "unique-sequencing" got))
            rs)
    (corpus_files ());
  (* random streams with duplicates, gaps, conflicts and malformed
     payloads (the compact-state generator) *)
  let rng = Random.State.make [| 17 |] in
  for i = 1 to 500 do
    check (Printf.sprintf "random stream %d" i) (gen_stream rng)
  done;
  Alcotest.(check bool) "the runs delivered" true (!deliveries > 1000);
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " latched somewhere") true
        (List.mem_assoc rule !latches))
    [ "unique-sequencing"; "contiguous-delivery"; "prefix-consistent" ]

let () =
  Alcotest.run "monitor-audit"
    [
      ( "clean",
        [
          Alcotest.test_case "golden-runs" `Quick test_clean_runs;
          Alcotest.test_case "faulty-transport" `Quick
            test_faulty_transport_is_clean;
        ] );
      ( "defects",
        [
          Alcotest.test_case "corpus-replay" `Quick test_corpus_audit;
          Alcotest.test_case "latches-online" `Quick
            test_no_dedup_latches_mid_stream;
        ] );
      ( "compact-state",
        [
          Alcotest.test_case "latches as the table-based rules" `Quick
            test_compact_rules_match_oracle;
        ] );
      ( "at-the-source",
        [
          Alcotest.test_case "split latches as the whole stream" `Quick
            test_split_matches_whole;
        ] );
    ]
