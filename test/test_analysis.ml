(* Tests for the static-analysis pass (lib/analysis).

   Each analysis is exercised positively on a toy automaton seeded with
   exactly the defect it is meant to catch, and negatively on the clean
   variant.  The packaged registry entries must analyze clean under a
   reduced exploration bound — that is the same contract the CI gate
   (`dune build @analyze`) enforces at a larger bound. *)

module F = Analysis.Findings
module An = Analysis.Analyzer

(* ------------------------------------------------------------------ *)
(* Toy automata: bounded counters with seeded defects                  *)
(* ------------------------------------------------------------------ *)

type caction = Incr | Decr | Reset

let pp_caction ppf a =
  Format.pp_print_string ppf
    (match a with Incr -> "incr" | Decr -> "decr" | Reset -> "reset")

let caction_class a = Format.asprintf "%a" pp_caction a

(* The clean counter: 0..5, increment/decrement, reset at the top.  The
   generator proposes exactly the enabled set, so it is sound and
   complete, every class fires, and there are no deadlocks. *)
module Counter = struct
  type state = int
  type action = caction

  let equal_state = Int.equal
  let pp_state = Format.pp_print_int
  let pp_action = pp_caction
  let enabled s = function Incr -> s < 5 | Decr -> s > 0 | Reset -> s >= 5
  let step s = function Incr -> s + 1 | Decr -> s - 1 | Reset -> 0
  let is_external = function Incr | Decr -> true | Reset -> false
  let candidates _rng s = List.filter (enabled s) [ Incr; Decr; Reset ]
end

(* Defect: proposes every action everywhere, including disabled ones.
   Harmless to the exploration (the engine filters through [enabled]) but
   a violation of the exact-generator contract. *)
module Unsound = struct
  include Counter

  let candidates _rng _s = [ Incr; Decr; Reset ]
end

(* Defect: silently never proposes [Decr] at state 3 even though it is
   enabled there — a missed schedule the exploration would never try. *)
module Missed = struct
  include Counter

  let candidates _rng s =
    List.filter (enabled s) [ Incr; Decr; Reset ]
    |> List.filter (fun a -> not (s = 3 && a = Decr))
end

(* Defect: [Reset] requires 10 but the counter is capped at 5, so the
   class is declared yet unreachable — dead. *)
module DeadReset = struct
  include Counter

  let enabled s = function Incr -> s < 5 | Decr -> s > 0 | Reset -> s >= 10
  let candidates _rng s = List.filter (enabled s) [ Incr; Decr; Reset ]
end

(* Defect: counts up to 3 and stops — no action enabled at the top, and
   the quiescence predicate (below) does not excuse state 3. *)
module Stuck = struct
  include Counter

  let enabled s = function Incr -> s < 3 | Decr | Reset -> false
  let candidates _rng s = List.filter (enabled s) [ Incr; Decr; Reset ]
end

let gen (module M : Ioa.Automaton.GENERATIVE
          with type state = int
           and type action = caction) =
  (module M : Ioa.Automaton.GENERATIVE
    with type state = int
     and type action = caction)

let int_codec = Check.Codec.make ~id:"counter" ~version:1 Check.Codec.int

(* Defect: a codec that writes only the parity, so it conflates every two
   states of equal parity — not injective. *)
let parity_codec =
  Check.Codec.make ~id:"counter-parity" ~version:1
    (Check.Codec.via ~to_:(fun s -> s mod 2) ~of_:Fun.id Check.Codec.int)

let subject ?(key = string_of_int) ?(codec = int_codec) ?(invariants = [])
    ?(complete = []) ?(exact = false) ?quiescent ?(allowed_dead = []) m =
  {
    An.automaton = gen m;
    init = 0;
    key;
    equal_state = Some Int.equal;
    invariants;
    pp_state = Format.pp_print_int;
    pp_action = pp_caction;
    action_class = caction_class;
    all_classes = [ "incr"; "decr"; "reset" ];
    complete_classes = complete;
    exact_candidates = exact;
    quiescent;
    allowed_dead;
    check_step = None;
    step_class = "step";
    simplify_action = None;
    layer = "test";
    generator = "exact; deterministic";
    footprint = None;
    symmetry = None;
    codec;
    instrumented_step = None;
  }

let kinds r = List.map F.kind r.F.findings

let check_kinds msg expected r =
  Alcotest.(check (slist string compare)) msg expected (kinds r)

(* ------------------------------------------------------------------ *)
(* Seeded-defect findings                                              *)
(* ------------------------------------------------------------------ *)

let test_clean_counter () =
  let r =
    An.analyze ~name:"counter"
      (subject ~exact:true
         ~complete:[ "incr"; "decr"; "reset" ]
         ~quiescent:(fun _ -> false)
         (module Counter))
  in
  check_kinds "no findings" [] r;
  Alcotest.(check int) "six states" 6 r.F.states;
  Alcotest.(check bool) "complete" false r.F.truncated;
  List.iter
    (fun (cls, n) -> Alcotest.(check bool) (cls ^ " fired") true (n > 0))
    r.F.classes

let test_unsound_candidate () =
  let r = An.analyze ~name:"unsound" (subject ~exact:true (module Unsound)) in
  Alcotest.(check bool) "unsound reported" true
    (List.mem "unsound-candidate" (kinds r));
  (* the same generator under a non-exact contract is not a finding *)
  let r' = An.analyze ~name:"unsound" (subject ~exact:false (module Unsound)) in
  check_kinds "inexact contract tolerated" [] r'

let test_missed_enabled () =
  let r =
    An.analyze ~name:"missed" (subject ~complete:[ "decr" ] (module Missed))
  in
  let missed =
    List.filter_map
      (function
        | F.Missed_enabled { cls; state; _ } -> Some (cls, state) | _ -> None)
      r.F.findings
  in
  Alcotest.(check (list (pair string string)))
    "decr missed at 3"
    [ ("decr", "3") ]
    missed;
  (* not a finding when the class is not completeness-checked *)
  let r' = An.analyze ~name:"missed" (subject (module Missed)) in
  check_kinds "unchecked class tolerated" [] r'

let test_dead_class () =
  let r = An.analyze ~name:"dead" (subject (module DeadReset)) in
  Alcotest.(check (list string)) "reset dead" [ "dead-class" ] (kinds r);
  Alcotest.(check (option int))
    "reset count zero" (Some 0)
    (List.assoc_opt "reset" r.F.classes);
  (* the documented-baseline escape hatch *)
  let r' =
    An.analyze ~name:"dead" (subject ~allowed_dead:[ "reset" ] (module DeadReset))
  in
  check_kinds "allowed dead" [] r'

let test_deadlock () =
  let quiescent s = s = 0 in
  let r =
    An.analyze ~name:"stuck" (subject ~quiescent (module Stuck))
  in
  let dl =
    List.filter_map
      (function F.Deadlock { state; _ } -> Some state | _ -> None)
      r.F.findings
  in
  Alcotest.(check (list string)) "stuck at 3" [ "3" ] dl;
  (* with no quiescence predicate the check is off *)
  let r' = An.analyze ~name:"stuck" (subject (module Stuck)) in
  Alcotest.(check bool) "no deadlock check" false
    (List.mem "deadlock" (kinds r'))

let test_vacuous_invariant () =
  let never =
    Ioa.Invariant.implication "counter-huge"
      ~antecedent:(fun s -> s > 100)
      ~consequent:(fun _ -> false)
  in
  let live =
    Ioa.Invariant.implication "counter-positive-bounded"
      ~antecedent:(fun s -> s > 0)
      ~consequent:(fun s -> s <= 5)
  in
  let r =
    An.analyze ~name:"vacuous"
      (subject ~invariants:[ never; live ] (module Counter))
  in
  let vac =
    List.filter_map
      (function F.Vacuous_invariant { invariant; _ } -> Some invariant | _ -> None)
      r.F.findings
  in
  Alcotest.(check (list string)) "only the dead antecedent" [ "counter-huge" ] vac;
  (* coverage records both, with counts *)
  let cov name =
    (List.find (fun c -> c.F.cov_invariant = name) r.F.coverage).F.cov_antecedent
  in
  Alcotest.(check (option int)) "huge never held" (Some 0) (cov "counter-huge");
  Alcotest.(check (option int))
    "positive held in 5 of 6" (Some 5)
    (cov "counter-positive-bounded")

let test_invariant_violation () =
  let bad = Ioa.Invariant.plain (Ioa.Invariant.make "never-three" (fun s -> s <> 3)) in
  let r = An.analyze ~name:"violation" (subject ~invariants:[ bad ] (module Counter)) in
  Alcotest.(check bool) "violation reported" true
    (List.mem "invariant-violation" (kinds r))

let parity_key s = string_of_int (s mod 2)

let test_key_clash () =
  (* the analyzer dedups on the codec, so the audit guards the codec: a
     parity codec is caught on the sequential engine at jobs:1 and on the
     shard's owning worker at jobs:4 *)
  List.iter
    (fun jobs ->
      let r =
        An.analyze ~name:"clash" ~jobs
          (subject ~codec:parity_codec (module Counter))
      in
      Alcotest.(check bool)
        (Printf.sprintf "codec clash reported at jobs:%d" jobs)
        true
        (List.mem "key-clash" (kinds r));
      (* the key only seeds the RNG there: a parity key conflates nothing *)
      let r' =
        An.analyze ~name:"seed-only key" ~jobs
          (subject ~key:parity_key (module Counter))
      in
      Alcotest.(check (list string))
        (Printf.sprintf "parity key alone is no clash at jobs:%d" jobs)
        [] (kinds r');
      Alcotest.(check int)
        (Printf.sprintf "all six states at jobs:%d" jobs)
        6 r'.F.states;
      (* key-only dedup, what [find_cex] and bin/model_check run, is
         audited the same way *)
      let out =
        Check.Explorer.run
          (gen (module Counter))
          ~key:parity_key ~check_key:Int.equal ~invariants:[] ~jobs ~init:0 ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "key clash reported at jobs:%d" jobs)
        true
        (Option.is_some out.Check.Explorer.key_clash))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Truncation semantics                                                *)
(* ------------------------------------------------------------------ *)

let test_truncation_suppresses_coverage () =
  (* under a 2-state bound, [reset] not firing and the antecedent not
     holding are absences of evidence, not findings *)
  let never =
    Ioa.Invariant.implication "counter-huge"
      ~antecedent:(fun s -> s > 100)
      ~consequent:(fun _ -> false)
  in
  let r =
    An.analyze ~name:"truncated" ~max_states:2
      (subject ~invariants:[ never ] (module DeadReset))
  in
  Alcotest.(check bool) "truncated" true r.F.truncated;
  check_kinds "no findings on a partial graph" [] r

let test_truncation_still_checks_crossing_state () =
  (* BFS from 0 visits 0, 1, 2 under max_states = 3; the invariant fails
     exactly on the state that crosses the bound and must still be caught
     (the search then stops on the violation, not the bound) *)
  let bad = Ioa.Invariant.plain (Ioa.Invariant.make "never-two" (fun s -> s <> 2)) in
  let r =
    An.analyze ~name:"crossing" ~max_states:3
      (subject ~invariants:[ bad ] (module Counter))
  in
  Alcotest.(check int) "exactly the bound" 3 r.F.states;
  Alcotest.(check bool) "violation at the crossing state" true
    (List.mem "invariant-violation" (kinds r))

(* ------------------------------------------------------------------ *)
(* Explorer seeding                                                    *)
(* ------------------------------------------------------------------ *)

let test_explorer_seed_deterministic () =
  let run seed =
    Check.Explorer.run
      (gen (module Counter))
      ~key:string_of_int ~invariants:[] ~seed ~init:0 ()
  in
  let a = run [| 7 |] and b = run [| 7 |] in
  Alcotest.(check int) "same states" a.Check.Explorer.stats.Check.Explorer.states
    b.Check.Explorer.stats.Check.Explorer.states;
  Alcotest.(check int) "same transitions"
    a.Check.Explorer.stats.Check.Explorer.transitions
    b.Check.Explorer.stats.Check.Explorer.transitions

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_json_report () =
  let r = An.analyze ~name:"dead" (subject (module DeadReset)) in
  let js = F.reports_json [ r ] in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true (contains ~needle js))
    [
      {|"entries":|};
      {|"entry":"dead"|};
      {|"kind":"dead-class"|};
      {|"total_findings":1|};
    ];
  Alcotest.(check bool) "escaping" true
    (contains ~needle:{|\"qu\noted\"|}
       (F.report_json
          {
            r with
            F.findings = [ F.Dead_class { cls = "\"qu\noted\"" } ];
          }))

(* ------------------------------------------------------------------ *)
(* Seeded protocol defect: an engine that never retransmits strands the *)
(* protocol under a lossy transport — a liveness failure the quiescence *)
(* analysis reports as a deadlock                                       *)
(* ------------------------------------------------------------------ *)

module VStk = Vs_impl.Stack.Make (Prelude.Msg_intf.String_msg)

(* Mirrors the [vs-stack-faulty] registry entry's quiescence predicate:
   nothing in flight, and every member still sharing a view with its
   sequencer has forwarded, delivered and safed everything. *)
let vstack_quiescent (s : VStk.state) =
  let open Prelude in
  VStk.N.in_flight s.VStk.net = 0
  && Proc.Map.for_all
       (fun _ e ->
         match e.VStk.E.cur with
         | None -> true
         | Some v -> (
             let g = View.id v in
             Seqs.is_empty (VStk.E.outq_of e g)
             &&
             match Proc.Map.find_opt (VStk.E.sequencer v) s.VStk.engines with
             | None -> true
             | Some se -> (
                 match se.VStk.E.cur with
                 | Some v' when View.equal v v' ->
                     let n = Seqs.length (VStk.E.seq_log_of se g) in
                     VStk.E.next_deliver_of e g = n + 1
                     && VStk.E.next_safe_of e g = n + 1
                     && Seqs.length (VStk.E.fwd_log_of e g)
                        = VStk.E.fwd_seen_of se ~src:e.VStk.E.me g
                 | _ -> true)))
       s.VStk.engines

let vstack_subject ?variant ~faults () =
  let cfg =
    {
      (VStk.default_config ~payloads:[ "a" ] ~universe:2) with
      VStk.max_views = 0;
      max_sends = 1;
    }
  in
  {
    An.automaton = VStk.generative cfg ~rng_views:(Random.State.make [| 42 |]);
    init =
      VStk.initial ~faults ?variant ~universe:2
        ~p0:(Prelude.Proc.Set.universe 2) ();
    key = VStk.state_key;
    equal_state = Some VStk.equal_state;
    invariants = [];
    pp_state = VStk.pp_state;
    pp_action = VStk.pp_action;
    action_class = (fun a -> Format.asprintf "%a" VStk.pp_action a);
    all_classes = [];
    complete_classes = [];
    exact_candidates = false;
    quiescent = Some vstack_quiescent;
    allowed_dead = [];
    check_step = None;
    step_class = "step";
    simplify_action = None;
    layer = "test";
    generator = "over-approx; rng-paced";
    footprint = None;
    symmetry = None;
    codec =
      Check.Codec.make ~id:"vs-stack" ~version:1
        (VStk.codec_state Check.Codec.string);
    instrumented_step = None;
  }

let test_no_retransmit_deadlocks () =
  (* one drop, no duplicates or reorders: a single lost packet must not
     strand the protocol *)
  let faults =
    Vs_impl.Fault.adversarial ~max_duplicates:0 ~max_reorders:0 ()
  in
  let r =
    An.analyze ~name:"no-retransmit" ~max_states:50_000
      (vstack_subject ~variant:VStk.E.No_retransmit ~faults ())
  in
  Alcotest.(check bool) "defect deadlocks" true
    (List.mem "deadlock" (kinds r));
  (* the faithful engine under the same lossy policy always recovers *)
  let r' =
    An.analyze ~name:"faithful-lossy" ~max_states:50_000
      (vstack_subject ~faults ())
  in
  Alcotest.(check bool) "faithful recovers" false
    (List.mem "deadlock" (kinds r'))

(* ------------------------------------------------------------------ *)
(* The packaged registry                                               *)
(* ------------------------------------------------------------------ *)

let test_registry_entries_clean () =
  List.iter
    (fun (Analysis.Registry.Entry e) ->
      let r = An.analyze ~name:e.name ~max_states:2_000 e.subject in
      Alcotest.(check (list string)) (e.name ^ " clean") [] (kinds r))
    (Analysis.Registry.all ())

let test_registry_lookup () =
  let entries = Analysis.Registry.all () in
  Alcotest.(check int) "eight entries" 8 (List.length entries);
  Alcotest.(check bool) "finds vs-stack-faulty" true
    (Option.is_some (Analysis.Registry.find entries "vs-stack-faulty"));
  Alcotest.(check bool) "finds to-spec" true
    (Option.is_some (Analysis.Registry.find entries "to-spec"));
  Alcotest.(check bool) "rejects unknown" true
    (Option.is_none (Analysis.Registry.find entries "nope"))

let () =
  Alcotest.run "analysis"
    [
      ( "findings",
        [
          Alcotest.test_case "clean counter" `Quick test_clean_counter;
          Alcotest.test_case "unsound candidate" `Quick test_unsound_candidate;
          Alcotest.test_case "missed enabled" `Quick test_missed_enabled;
          Alcotest.test_case "dead class" `Quick test_dead_class;
          Alcotest.test_case "deadlock" `Quick test_deadlock;
          Alcotest.test_case "vacuous invariant" `Quick test_vacuous_invariant;
          Alcotest.test_case "invariant violation" `Quick test_invariant_violation;
          Alcotest.test_case "key clash" `Quick test_key_clash;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "suppresses coverage findings" `Quick
            test_truncation_suppresses_coverage;
          Alcotest.test_case "checks the crossing state" `Quick
            test_truncation_still_checks_crossing_state;
          Alcotest.test_case "explorer seed deterministic" `Quick
            test_explorer_seed_deterministic;
        ] );
      ( "reporting",
        [ Alcotest.test_case "json" `Quick test_json_report ] );
      ( "protocol-defects",
        [
          Alcotest.test_case "no-retransmit deadlocks" `Slow
            test_no_retransmit_deadlocks;
        ] );
      ( "registry",
        [
          Alcotest.test_case "entries analyze clean" `Slow
            test_registry_entries_clean;
          Alcotest.test_case "lookup" `Quick test_registry_lookup;
        ] );
    ]
