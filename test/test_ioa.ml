(* Tests for the I/O-automata toolkit itself: executions, replay, traces,
   invariant harness, refinement checker, exhaustive explorer, and the
   statistics helpers used by the experiment harness. *)

(* A toy automaton: a counter with increment (input), decrement (output,
   enabled when positive) and an internal reset when the counter hits a
   threshold. *)
module Counter = struct
  type state = int
  type action = Incr | Decr | Reset

  let equal_state = Int.equal
  let pp_state = Format.pp_print_int

  let pp_action ppf a =
    Format.pp_print_string ppf
      (match a with Incr -> "incr" | Decr -> "decr" | Reset -> "reset")

  let enabled s = function Incr -> s < 5 | Decr -> s > 0 | Reset -> s >= 5
  let step s = function Incr -> s + 1 | Decr -> s - 1 | Reset -> 0
  let is_external = function Incr | Decr -> true | Reset -> false
  let candidates _rng _s = [ Incr; Decr; Reset ]
end

let counter = (module Counter : Ioa.Automaton.S with type state = int and type action = Counter.action)

let counter_gen =
  (module Counter : Ioa.Automaton.GENERATIVE
    with type state = int
     and type action = Counter.action)

(* ------------------------------------------------------------------ *)
(* Exec                                                                *)
(* ------------------------------------------------------------------ *)

let test_run_respects_enabledness () =
  let rng = Random.State.make [| 1 |] in
  let exec, _ = Ioa.Exec.run counter_gen ~rng ~steps:200 ~init:0 in
  Alcotest.(check int) "200 steps" 200 (Ioa.Exec.length exec);
  ignore exec;
  (* the invariant of the toy automaton: never negative, never above 5 *)
  Alcotest.(check bool) "bounded" true
    (List.for_all (fun s -> s >= 0 && s <= 5) (Ioa.Exec.states exec))

let test_replay_roundtrip () =
  let rng = Random.State.make [| 2 |] in
  let exec, _ = Ioa.Exec.run counter_gen ~rng ~steps:100 ~init:0 in
  match Ioa.Exec.replay counter ~init:0 (Ioa.Exec.actions exec) with
  | Ok exec' ->
      Alcotest.(check int) "same final" (Ioa.Exec.last exec) (Ioa.Exec.last exec')
  | Error (i, msg) -> Alcotest.failf "replay failed at %d: %s" i msg

let test_replay_rejects_disabled () =
  match Ioa.Exec.replay counter ~init:0 [ Counter.Decr ] with
  | Ok _ -> Alcotest.fail "decr at 0 should be rejected"
  | Error (0, _) -> ()
  | Error (i, _) -> Alcotest.failf "wrong index %d" i

let test_trace_hides_internal () =
  let actions = [ Counter.Incr; Incr; Incr; Incr; Incr; Reset; Incr ] in
  match Ioa.Exec.replay counter ~init:0 actions with
  | Error (i, msg) -> Alcotest.failf "replay failed at %d: %s" i msg
  | Ok exec ->
      let trace = Ioa.Exec.trace counter exec in
      Alcotest.(check int) "reset invisible" 6 (List.length trace)

(* ------------------------------------------------------------------ *)
(* Replay failure paths                                                *)
(* ------------------------------------------------------------------ *)

let test_replay_truncated_schedule () =
  (* a schedule whose middle action is disabled: Reset needs >= 5, the
     prefix only reaches 2.  [replay] discards; [replay_prefix] keeps the
     successful prefix and reports the failing index. *)
  let actions = [ Counter.Incr; Incr; Reset; Incr ] in
  (match Ioa.Exec.replay counter ~init:0 actions with
  | Ok _ -> Alcotest.fail "reset at 2 must be rejected"
  | Error (i, _) -> Alcotest.(check int) "failing index" 2 i);
  let exec, err = Ioa.Exec.replay_prefix counter ~init:0 actions in
  Alcotest.(check int) "prefix kept" 2 (Ioa.Exec.length exec);
  Alcotest.(check int) "prefix final state" 2 (Ioa.Exec.last exec);
  (match err with
  | Some (2, _) -> ()
  | Some (i, _) -> Alcotest.failf "wrong index %d" i
  | None -> Alcotest.fail "must report the disabled action");
  (* a clean schedule reports no error and keeps everything *)
  let exec', err' = Ioa.Exec.replay_prefix counter ~init:0 [ Counter.Incr ] in
  Alcotest.(check int) "full prefix" 1 (Ioa.Exec.length exec');
  Alcotest.(check bool) "no error" true (err' = None)

(* An automaton whose only enabled action at each state is derived from a
   seed embedded in the initial state: replaying a schedule recorded under
   one seed against an init carrying another fails immediately, the way a
   corpus entry replayed with the wrong explorer seed does. *)
module Lockstep = struct
  type state = { seed : int; n : int }
  type action = Tick of int

  let equal_state a b = a.seed = b.seed && a.n = b.n
  let pp_state ppf s = Format.fprintf ppf "%d@%d" s.seed s.n
  let pp_action ppf (Tick k) = Format.fprintf ppf "tick%d" k
  let expected s = ((s.seed * 31) + s.n) land 7
  let enabled s (Tick k) = k = expected s
  let step s (Tick _) = { s with n = s.n + 1 }
  let is_external _ = true
  let candidates _rng s = [ Tick (expected s) ]
end

let lockstep =
  (module Lockstep : Ioa.Automaton.S
    with type state = Lockstep.state
     and type action = Lockstep.action)

let test_replay_wrong_seed () =
  let init seed = { Lockstep.seed; n = 0 } in
  let rng = Random.State.make [| 0 |] in
  let exec, _ =
    Ioa.Exec.run
      (module Lockstep : Ioa.Automaton.GENERATIVE
        with type state = Lockstep.state
         and type action = Lockstep.action)
      ~rng ~steps:10 ~init:(init 1)
  in
  let actions = Ioa.Exec.actions exec in
  (* same seed: replays in full *)
  (match Ioa.Exec.replay lockstep ~init:(init 1) actions with
  | Ok exec' ->
      Alcotest.(check int) "full replay" 10 (Ioa.Exec.length exec')
  | Error (i, msg) -> Alcotest.failf "replay failed at %d: %s" i msg);
  (* wrong seed: the very first recorded action is not enabled *)
  match Ioa.Exec.replay lockstep ~init:(init 2) actions with
  | Ok _ -> Alcotest.fail "wrong seed must not replay"
  | Error (i, _) -> Alcotest.(check int) "fails at the start" 0 i

let test_replay_events_stop_at_failure () =
  let sink, events = Obs.Trace.memory () in
  let actions = [ Counter.Incr; Incr; Reset; Incr; Incr ] in
  let exec, err = Ioa.Exec.replay_prefix ~sink counter ~init:0 actions in
  Alcotest.(check int) "two steps replayed" 2 (Ioa.Exec.length exec);
  Alcotest.(check bool) "failure reported" true (err <> None);
  let evs = events () in
  let points =
    List.filter (fun e -> e.Obs.Trace.kind = Obs.Trace.Point) evs
  in
  (* one point event per successful step, none for or past the failing
     action *)
  Alcotest.(check int) "events stop at the failure" 2 (List.length points);
  let closes =
    List.filter (fun e -> e.Obs.Trace.kind = Obs.Trace.Span_close) evs
  in
  Alcotest.(check int) "replay span closed" 1 (List.length closes)

(* ------------------------------------------------------------------ *)
(* Invariant harness                                                   *)
(* ------------------------------------------------------------------ *)

let test_invariant_reports_first () =
  let inv = Ioa.Invariant.make "below 3" (fun s -> s < 3) in
  match
    Ioa.Exec.replay counter ~init:0 [ Counter.Incr; Incr; Incr; Incr ]
  with
  | Error _ -> Alcotest.fail "replay"
  | Ok exec -> (
      match Ioa.Invariant.check_execution [ inv ] exec with
      | Ok () -> Alcotest.fail "should violate"
      | Error v ->
          Alcotest.(check int) "first violating state index" 3 v.Ioa.Invariant.index;
          Alcotest.(check int) "state value" 3 v.Ioa.Invariant.state)

(* ------------------------------------------------------------------ *)
(* Refinement checker on a toy pair                                    *)
(* ------------------------------------------------------------------ *)

(* Spec: a counter modulo nothing (just the value).  Impl: a counter that
   stores the value as (tens, units).  F(t, u) = 10t + u. *)
module Spec2 = struct
  type state = int
  type action = Add of int

  let equal_state = Int.equal
  let pp_state = Format.pp_print_int
  let pp_action ppf (Add k) = Format.fprintf ppf "add%d" k
  let enabled _ (Add k) = k = 1
  let step s (Add k) = s + k
  let is_external _ = true
end

module Impl2 = struct
  type state = int * int
  type action = Bump | Carry

  let equal_state (a, b) (c, d) = a = c && b = d
  let pp_state ppf (t, u) = Format.fprintf ppf "(%d,%d)" t u
  let pp_action ppf a =
    Format.pp_print_string ppf (match a with Bump -> "bump" | Carry -> "carry")

  let enabled (_, u) = function Bump -> u < 10 | Carry -> u >= 10
  let step (t, u) = function Bump -> (t, u + 1) | Carry -> (t + 1, u - 10)
  let is_external = function Bump -> true | Carry -> false
end

let refinement_ok =
  {
    Ioa.Refinement.name = "decimal counter";
    abstraction = (fun (t, u) -> (10 * t) + u);
    match_step =
      (fun _ a _ -> match a with Impl2.Bump -> [ Spec2.Add 1 ] | Impl2.Carry -> []);
    impl_label = (fun a -> match a with Impl2.Bump -> Some "tick" | Impl2.Carry -> None);
    spec_label = (fun (Spec2.Add _) -> Some "tick");
  }

let spec2 =
  (module Spec2 : Ioa.Automaton.S with type state = int and type action = Spec2.action)

let test_refinement_accepts () =
  let actions = [ Impl2.Bump; Bump; Bump; Bump; Bump; Bump; Bump; Bump; Bump; Bump; Carry; Bump ] in
  let impl2 =
    (module Impl2 : Ioa.Automaton.S
      with type state = int * int
       and type action = Impl2.action)
  in
  match Ioa.Exec.replay impl2 ~init:(0, 0) actions with
  | Error _ -> Alcotest.fail "replay"
  | Ok exec -> (
      match
        Ioa.Refinement.check_execution spec2 ~spec_initial:0 refinement_ok exec
      with
      | Ok () -> ()
      | Error f -> Alcotest.failf "%a" Ioa.Refinement.pp_failure f)

let test_refinement_catches_bad_abstraction () =
  let broken = { refinement_ok with abstraction = (fun (t, u) -> t + u) } in
  let impl2 =
    (module Impl2 : Ioa.Automaton.S
      with type state = int * int
       and type action = Impl2.action)
  in
  let actions = List.init 10 (fun _ -> Impl2.Bump) @ [ Impl2.Carry ] in
  match Ioa.Exec.replay impl2 ~init:(0, 0) actions with
  | Error _ -> Alcotest.fail "replay"
  | Ok exec -> (
      match Ioa.Refinement.check_execution spec2 ~spec_initial:0 broken exec with
      | Ok () -> Alcotest.fail "broken abstraction must be caught"
      | Error _ -> ())

let test_refinement_catches_trace_mismatch () =
  let broken =
    { refinement_ok with impl_label = (fun _ -> Some "tick") (* Carry now visible *) }
  in
  let impl2 =
    (module Impl2 : Ioa.Automaton.S
      with type state = int * int
       and type action = Impl2.action)
  in
  let actions = List.init 10 (fun _ -> Impl2.Bump) @ [ Impl2.Carry ] in
  match Ioa.Exec.replay impl2 ~init:(0, 0) actions with
  | Error _ -> Alcotest.fail "replay"
  | Ok exec -> (
      match Ioa.Refinement.check_execution spec2 ~spec_initial:0 broken exec with
      | Ok () -> Alcotest.fail "trace mismatch must be caught"
      | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Explorer                                                            *)
(* ------------------------------------------------------------------ *)

let test_explorer_counts () =
  (* the counter automaton over 0..5 has exactly 6 reachable states *)
  let outcome =
    Check.Explorer.run counter_gen ~key:string_of_int ~invariants:[] ~init:0 ()
  in
  Alcotest.(check int) "6 states" 6 outcome.Check.Explorer.stats.Check.Explorer.states;
  Alcotest.(check bool) "not truncated" false
    outcome.Check.Explorer.stats.Check.Explorer.truncated

let test_explorer_finds_violation () =
  let inv = Ioa.Invariant.make "below 4" (fun s -> s < 4) in
  let outcome =
    Check.Explorer.run counter_gen ~key:string_of_int ~invariants:[ inv ] ~init:0 ()
  in
  match outcome.Check.Explorer.violation with
  | Some v -> Alcotest.(check int) "state 4 found" 4 v.Ioa.Invariant.state
  | None -> Alcotest.fail "must find the violation"

(* Dedup needs an identity: a codec, a key, or both. *)
let test_explorer_needs_identity () =
  Alcotest.check_raises "neither key nor codec"
    (Invalid_argument "Explorer.run: needs a key or a codec") (fun () ->
      ignore (Check.Explorer.run counter_gen ~invariants:[] ~init:0 ()));
  let codec = Check.Codec.make ~id:"counter" ~version:1 Check.Codec.int in
  let states ?key ?codec () =
    (Check.Explorer.run counter_gen ?key ?codec ~invariants:[] ~init:0 ())
      .Check.Explorer.stats.Check.Explorer.states
  in
  Alcotest.(check int) "codec alone" 6 (states ~codec ());
  Alcotest.(check int) "codec and key" 6 (states ~key:string_of_int ~codec ())

(* A depth cut runs the sequential engine at every job count, so the
   stats — depth included — cannot depend on [jobs]. *)
let test_explorer_max_depth () =
  let stats jobs =
    (Check.Explorer.run counter_gen ~key:string_of_int ~invariants:[]
       ~max_depth:2 ~jobs ~init:0 ())
      .Check.Explorer.stats
  in
  let s1 = stats 1 and s4 = stats 4 in
  Alcotest.(check int) "only 0,1,2 reachable at depth 2" 3
    s1.Check.Explorer.states;
  Alcotest.(check int) "depth 2" 2 s1.Check.Explorer.depth;
  Alcotest.(check bool) "jobs:4 stats identical to jobs:1" true (s1 = s4)

let test_explorer_violation_step () =
  (* the violating transition itself must be recorded: 3 --incr--> 4 *)
  let inv = Ioa.Invariant.make "below 4" (fun s -> s < 4) in
  let outcome =
    Check.Explorer.run counter_gen ~key:string_of_int ~invariants:[ inv ]
      ~init:0 ()
  in
  match outcome.Check.Explorer.violation_step with
  | Some st ->
      Alcotest.(check int) "pre" 3 st.Ioa.Exec.pre;
      Alcotest.(check int) "post" 4 st.Ioa.Exec.post;
      Alcotest.(check bool) "action" true (st.Ioa.Exec.action = Counter.Incr)
  | None -> Alcotest.fail "violating step must be recorded"

let explorer_reconstruct ~jobs () =
  let inv = Ioa.Invariant.make "below 4" (fun s -> s < 4) in
  let outcome =
    Check.Explorer.run counter_gen ~key:string_of_int ~invariants:[ inv ]
      ~state_rng:true ~trace:true ~jobs ~init:0 ()
  in
  let trace =
    match outcome.Check.Explorer.trace with
    | Some t -> t
    | None -> Alcotest.fail "trace requested"
  in
  let target =
    match outcome.Check.Explorer.violation with
    | Some v -> v.Ioa.Invariant.state
    | None -> Alcotest.fail "violation expected"
  in
  match
    Check.Cex.reconstruct counter_gen ~key:string_of_int ~trace ~init:0
      ~target ()
  with
  | Error e -> Alcotest.failf "reconstruction failed: %s" e
  | Ok path ->
      (* BFS: the witness is the four increments, nothing else *)
      Alcotest.(check int) "four actions" 4 (List.length path);
      Alcotest.(check bool) "all increments" true
        (List.for_all (fun a -> a = Counter.Incr) path);
      (* and it replays to the target *)
      (match Ioa.Exec.replay counter ~init:0 path with
      | Ok exec -> Alcotest.(check int) "reaches target" target (Ioa.Exec.last exec)
      | Error (i, msg) -> Alcotest.failf "replay failed at %d: %s" i msg)

let test_explorer_trace_sequential () = explorer_reconstruct ~jobs:1 ()
let test_explorer_trace_parallel () = explorer_reconstruct ~jobs:4 ()

let test_explorer_step_property () =
  let check_step (st : (int, Counter.action) Ioa.Exec.step) =
    if st.Ioa.Exec.post - st.Ioa.Exec.pre > 1 then Error "jump" else Ok ()
  in
  let outcome =
    Check.Explorer.run counter_gen ~key:string_of_int ~invariants:[] ~check_step
      ~init:0 ()
  in
  (* Reset jumps from 5 to 0: post - pre = -5, allowed by this property;
     increments are +1: nothing fails *)
  Alcotest.(check bool) "no step failure" true
    (outcome.Check.Explorer.step_failure = None)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_summary () =
  let s = Stats.summarize [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Stats.max;
  Alcotest.(check (float 1e-9)) "p50" 3.0 s.Stats.p50;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) s.Stats.stddev

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p90" 90.0 (Stats.percentile 0.9 xs);
  Alcotest.(check (float 1e-9)) "p0 -> min" 1.0 (Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "p1 -> max" 100.0 (Stats.percentile 1.0 xs)

let test_stats_histogram () =
  let h = Stats.histogram ~buckets:4 ~lo:0. ~hi:4. [ 0.5; 1.5; 1.7; 3.9; -1.0; 9.0 ] in
  Alcotest.(check (array int)) "counts" [| 2; 2; 0; 2 |] h

let test_stats_rate () =
  Alcotest.(check (float 1e-9)) "rate" 0.5 (Stats.rate [ true; false; true; false ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.rate [])

let () =
  Alcotest.run "ioa-toolkit"
    [
      ( "exec",
        [
          Alcotest.test_case "run respects enabledness" `Quick test_run_respects_enabledness;
          Alcotest.test_case "replay roundtrip" `Quick test_replay_roundtrip;
          Alcotest.test_case "replay rejects disabled" `Quick test_replay_rejects_disabled;
          Alcotest.test_case "trace hides internal" `Quick test_trace_hides_internal;
          Alcotest.test_case "truncated schedule keeps prefix" `Quick
            test_replay_truncated_schedule;
          Alcotest.test_case "wrong seed fails replay" `Quick
            test_replay_wrong_seed;
          Alcotest.test_case "events stop at failure" `Quick
            test_replay_events_stop_at_failure;
        ] );
      ( "invariant",
        [ Alcotest.test_case "reports first violation" `Quick test_invariant_reports_first ] );
      ( "refinement",
        [
          Alcotest.test_case "accepts correct" `Quick test_refinement_accepts;
          Alcotest.test_case "catches bad abstraction" `Quick
            test_refinement_catches_bad_abstraction;
          Alcotest.test_case "catches trace mismatch" `Quick
            test_refinement_catches_trace_mismatch;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "exact state count" `Quick test_explorer_counts;
          Alcotest.test_case "finds violations" `Quick test_explorer_finds_violation;
          Alcotest.test_case "needs a key or a codec" `Quick
            test_explorer_needs_identity;
          Alcotest.test_case "max depth" `Quick test_explorer_max_depth;
          Alcotest.test_case "step property" `Quick test_explorer_step_property;
          Alcotest.test_case "violation step recorded" `Quick
            test_explorer_violation_step;
          Alcotest.test_case "trace reconstruction (jobs 1)" `Quick
            test_explorer_trace_sequential;
          Alcotest.test_case "trace reconstruction (jobs 4)" `Quick
            test_explorer_trace_parallel;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "rate" `Quick test_stats_rate;
        ] );
    ]
