(* Tests for the barrier-free sharded engine and its handoff ring
   (Check.Ring).

   - Ring: capacity rounding, FIFO order, full-ring refusal, and an MPSC
     stress run across real domains (every element delivered exactly
     once, per-producer order preserved).
   - Quiescence: the credit-counting termination protocol neither hangs
     nor terminates early — checked with slow workers (worst-case idle
     imbalance) and with repeated runs of a tiny graph whose frontier
     empties constantly (the premature-termination window).
   - Parity: on clean exhaustive runs the sharded engine visits exactly
     the sequential engine's state set at every job count, discovery
     depth bounds BFS depth, [max_states] truncation keeps the exact
     deterministic count, and the three seeded registry defects are
     still caught. *)

module Ring = Check.Ring
module Fp = Check.Fingerprint
module An = Analysis.Analyzer
module Reg = Analysis.Registry

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let test_ring_capacity () =
  Alcotest.(check int) "3 rounds to 4" 4 (Ring.capacity (Ring.create ~capacity:3));
  Alcotest.(check int) "1 stays 1" 1 (Ring.capacity (Ring.create ~capacity:1));
  Alcotest.(check int) "64 stays 64" 64
    (Ring.capacity (Ring.create ~capacity:64));
  Alcotest.check_raises "0 rejected" (Invalid_argument "Ring.create")
    (fun () -> ignore (Ring.create ~capacity:0))

let test_ring_fifo () =
  let r = Ring.create ~capacity:8 in
  Alcotest.(check bool) "fresh ring empty" true (Ring.is_empty r);
  Alcotest.(check (option int)) "pop on empty" None (Ring.try_pop r);
  for i = 1 to 8 do
    Alcotest.(check bool) (Printf.sprintf "push %d" i) true (Ring.try_push r i)
  done;
  Alcotest.(check bool) "9th push refused" false (Ring.try_push r 9);
  Alcotest.(check int) "occupancy full" 8 (Ring.occupancy r);
  for i = 1 to 4 do
    Alcotest.(check (option int)) (Printf.sprintf "pop %d" i) (Some i)
      (Ring.try_pop r)
  done;
  (* Wrap around: freed slots are reusable and order is preserved. *)
  for i = 9 to 12 do
    Alcotest.(check bool) (Printf.sprintf "push %d" i) true (Ring.try_push r i)
  done;
  Alcotest.(check bool) "full again" false (Ring.try_push r 13);
  for i = 5 to 12 do
    Alcotest.(check (option int)) (Printf.sprintf "pop %d" i) (Some i)
      (Ring.try_pop r)
  done;
  Alcotest.(check bool) "drained" true (Ring.is_empty r)

(* Three producer domains push tagged sequences through one small ring
   while the main domain consumes: every element must arrive exactly
   once, and each producer's elements in its push order.  The tiny
   capacity forces constant full-ring retries, exercising the CAS tail
   reservation under real contention. *)
let test_ring_mpsc_stress () =
  let producers = 3 and per = 2_000 in
  let r = Ring.create ~capacity:4 in
  let doms =
    List.init producers (fun pid ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              while not (Ring.try_push r (pid, i)) do
                Domain.cpu_relax ()
              done
            done))
  in
  let next = Array.make producers 0 in
  let received = ref 0 in
  let misordered = ref 0 in
  while !received < producers * per do
    match Ring.try_pop r with
    | None -> Domain.cpu_relax ()
    | Some (pid, i) ->
        incr received;
        if next.(pid) <> i then incr misordered;
        next.(pid) <- i + 1
  done;
  List.iter Domain.join doms;
  Alcotest.(check int) "no out-of-order delivery" 0 !misordered;
  Alcotest.(check bool) "ring drained" true (Ring.is_empty r);
  Array.iteri
    (fun pid n ->
      Alcotest.(check int) (Printf.sprintf "producer %d complete" pid) per n)
    next

(* ------------------------------------------------------------------ *)
(* Synthetic automata                                                  *)
(* ------------------------------------------------------------------ *)

(* A diamond-dense DAG over 0..n: from s the actions +1/+2 lead to s+1 /
   s+2 while they stay in range.  Heavy reconvergence means most
   successors are duplicates owned by other shards — maximal cross-domain
   handoff traffic relative to useful work.  Exact ground truth: n+1
   states, 2n-1 transitions (for n >= 2), BFS depth ceil(n/2). *)
let diamond n ~slow =
  (module struct
    type state = int
    type action = int

    let equal_state = Int.equal
    let pp_state = Format.pp_print_int
    let pp_action = Format.pp_print_int
    let enabled s a = s + a <= n

    let step s a =
      (* [slow] stalls a pseudo-random ~1/16 of expansions so worker idle
         phases overlap pushes from laggards — the window a broken
         quiescence check would call termination in. *)
      if slow && (s * 7919) mod 16 = 0 then
        for _ = 1 to 50_000 do
          Sys.opaque_identity (Domain.cpu_relax ())
        done;
      s + a

    let is_external _ = false
    let candidates _rng _s = [ 1; 2 ]
  end : Ioa.Automaton.GENERATIVE
    with type state = int
     and type action = int)

let run_diamond ?max_states ~n ~jobs ~mode ~slow () =
  Check.Explorer.run (diamond n ~slow)
    ~key:(fun s -> string_of_int s)
    ~invariants:[] ?max_states ~jobs ~state_rng:true ~mode ~init:0 ()

let check_diamond_exact name (out : (int, int) Check.Explorer.outcome) ~n =
  let st = out.Check.Explorer.stats in
  Alcotest.(check bool) (name ^ ": exhausted") false st.Check.Explorer.truncated;
  Alcotest.(check int) (name ^ ": states") (n + 1) st.Check.Explorer.states;
  Alcotest.(check int)
    (name ^ ": transitions")
    ((2 * n) - 1)
    st.Check.Explorer.transitions;
  Alcotest.(check bool)
    (Printf.sprintf "%s: discovery depth %d within [%d, %d]" name
       st.Check.Explorer.depth ((n + 1) / 2) n)
    true
    (st.Check.Explorer.depth >= (n + 1) / 2 && st.Check.Explorer.depth <= n)

(* Slow workers: stalled expansions keep some domains busy while others
   idle-spin with credits outstanding.  Premature termination would drop
   states; a protocol hang would never return. *)
let test_quiescence_slow_workers () =
  let n = 2_000 in
  List.iter
    (fun jobs ->
      check_diamond_exact
        (Printf.sprintf "slow jobs:%d" jobs)
        (run_diamond ~n ~jobs ~mode:`Throughput ~slow:true ())
        ~n)
    [ 2; 4 ]

(* Empty-frontier races: a tiny graph at jobs:4 keeps every worker's
   frontier on the edge of empty, so the idle/re-wake path runs
   constantly.  Thirty runs make a racy termination check flake with
   high probability. *)
let test_quiescence_empty_frontier_races () =
  let n = 120 in
  for run = 1 to 30 do
    check_diamond_exact
      (Printf.sprintf "race run %d" run)
      (run_diamond ~n ~jobs:4 ~mode:`Throughput ~slow:false ())
      ~n
  done

(* Atomic quota reservation: a truncated sharded run must report exactly
   the deterministic count (max_states + 1 — the crossing state is still
   admitted and checked), even though which states it covers is
   scheduling-dependent. *)
let test_truncation_exact_count () =
  let n = 5_000 and max_states = 500 in
  List.iter
    (fun jobs ->
      let out = run_diamond ~max_states ~n ~jobs ~mode:`Throughput ~slow:false () in
      let st = out.Check.Explorer.stats in
      Alcotest.(check bool)
        (Printf.sprintf "jobs:%d truncated" jobs)
        true st.Check.Explorer.truncated;
      Alcotest.(check int)
        (Printf.sprintf "jobs:%d exact crossing count" jobs)
        (max_states + 1) st.Check.Explorer.states)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Engine parity                                                       *)
(* ------------------------------------------------------------------ *)

(* Registry-wide: deterministic sequential vs sharded throughput on
   clean exhaustive runs — same states, same transitions, BFS depth
   bounded by discovery depth.  (test_codec's mode_parity covers the
   verdict classes on the seeded defects; here the healthy entries pin
   the counts at both job levels.) *)
let test_registry_sharded_parity () =
  List.iter
    (fun (Reg.Entry e) ->
      let det = An.explore_raw ~max_states:6_000 ~jobs:1 e.subject in
      if not det.An.raw_truncated then
        List.iter
          (fun jobs ->
            let thr =
              An.explore_raw ~max_states:6_000 ~jobs ~mode:`Throughput
                e.subject
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s jobs:%d exhausted" e.name jobs)
              false thr.An.raw_truncated;
            Alcotest.(check int)
              (Printf.sprintf "%s jobs:%d states" e.name jobs)
              det.An.raw_states thr.An.raw_states;
            Alcotest.(check int)
              (Printf.sprintf "%s jobs:%d transitions" e.name jobs)
              det.An.raw_transitions thr.An.raw_transitions;
            Alcotest.(check bool)
              (Printf.sprintf "%s jobs:%d BFS depth %d <= discovery %d" e.name
                 jobs det.An.raw_depth thr.An.raw_depth)
              true
              (det.An.raw_depth <= thr.An.raw_depth))
          [ 1; 4 ])
    (Reg.all ())

(* The seeded defects must not escape the new engine: each still produces
   its expected failure class under the sharded exploration at jobs:4. *)
let test_defects_caught_sharded () =
  List.iter
    (fun entry ->
      let (Reg.Entry e) = entry in
      let r =
        An.explore_raw ~max_states:e.max_states ~jobs:4 ~mode:`Throughput
          e.subject
      in
      match Reg.expected entry with
      | None -> Alcotest.failf "%s: defect entry without expected class" e.name
      | Some (Check.Shrink.Invariant _) ->
          Alcotest.(check bool)
            (e.name ^ ": violation found")
            true
            (Option.is_some r.An.raw_violation)
      | Some (Check.Shrink.Step _) ->
          Alcotest.(check bool)
            (e.name ^ ": step failure found")
            true r.An.raw_step_failure
      | Some Check.Shrink.Deadlock ->
          Alcotest.(check bool)
            (e.name ^ ": deadlock observed")
            true r.An.raw_deadlock)
    (Reg.defects ())

let () =
  Alcotest.run "sharded"
    [
      ( "ring",
        [
          Alcotest.test_case "capacity rounding" `Quick test_ring_capacity;
          Alcotest.test_case "fifo and wrap-around" `Quick test_ring_fifo;
          Alcotest.test_case "mpsc stress across domains" `Slow
            test_ring_mpsc_stress;
        ] );
      ( "quiescence",
        [
          Alcotest.test_case "slow workers terminate exactly" `Slow
            test_quiescence_slow_workers;
          Alcotest.test_case "empty-frontier races" `Slow
            test_quiescence_empty_frontier_races;
          Alcotest.test_case "truncation keeps the exact count" `Slow
            test_truncation_exact_count;
        ] );
      ( "parity",
        [
          Alcotest.test_case "registry det = sharded" `Slow
            test_registry_sharded_parity;
          Alcotest.test_case "seeded defects still caught" `Slow
            test_defects_caught_sharded;
        ] );
    ]
