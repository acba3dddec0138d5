(* Tests for the reduction machinery (lib/analysis: Footprint + Symmetry
   feeding Check.Explorer's ?ample / ?canon hooks).

   Unit tests pin the commutation matrix, instance overlap, eligibility
   and ample-set construction on toy automata with hand-written schemas —
   including a deliberately lying schema the audit must catch.  On top of
   that, QCheck properties check the soundness contract end to end on the
   registry: reduced exploration (POR alone, canonicalization alone, and
   the combined --reduce path) must reach the same
   violation/step-failure/deadlock verdicts as full exploration across
   explorer seeds on every entry small enough to exhaust, seeded-defect
   entries must still reach their violations under --reduce, and
   counterexamples reconstructed in the presence of declared schemas must
   still replay. *)

module F = Analysis.Footprint
module Sym = Analysis.Symmetry
module An = Analysis.Analyzer
module Reg = Analysis.Registry

(* ------------------------------------------------------------------ *)
(* Commutation matrix and instance overlap                             *)
(* ------------------------------------------------------------------ *)

let test_kinds_commute () =
  let c = F.kinds_commute in
  (* reads of every flavour commute with each other *)
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (F.kind_name a ^ " vs " ^ F.kind_name b)
        true (c a b && c b a))
    [
      (F.Read, F.Read);
      (F.Read, F.Read_prefix);
      (F.Read_at, F.Read_prefix);
      (* producer/consumer and log/reader decoupling *)
      (F.Push, F.Pop);
      (F.Append, F.Read_prefix);
      (F.Append, F.Read_at);
      (F.Insert, F.Read_at);
      (F.Insert, F.Insert);
    ];
  (* everything else clashes, conservatively *)
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (F.kind_name a ^ " vs " ^ F.kind_name b ^ " clashes")
        false (c a b || c b a))
    [
      (F.Write, F.Write);
      (F.Write, F.Read);
      (F.Push, F.Push);
      (F.Pop, F.Pop);
      (F.Append, F.Append);
      (F.Append, F.Read);
      (F.Push, F.Read);
      (F.Insert, F.Read);
      (F.Write, F.Push);
    ]

let test_instances () =
  let star = F.eff F.Write "fam" in
  let a = F.eff ~inst:"0" F.Write "fam" in
  let b = F.eff ~inst:"1" F.Write "fam" in
  Alcotest.(check bool) "star overlaps everything" true (F.inst_overlap star a);
  Alcotest.(check bool) "same instance overlaps" true (F.inst_overlap a a);
  Alcotest.(check bool) "distinct instances disjoint" false (F.inst_overlap a b);
  (* conflict = same family + overlap + non-commuting kinds *)
  Alcotest.(check bool) "disjoint instances never conflict" false
    (F.conflict a b);
  Alcotest.(check bool) "same instance write-write conflicts" true
    (F.conflict a a);
  let other = F.eff ~inst:"0" F.Write "other" in
  Alcotest.(check bool) "distinct families never conflict" false
    (F.conflict a other);
  (* clash scans footprints pairwise *)
  Alcotest.(check bool) "clash found" true (F.clash [ a ] [ star ] <> None);
  Alcotest.(check bool) "no clash" true (F.clash [ a ] [ b ] = None)

(* ------------------------------------------------------------------ *)
(* Toy automaton: two independent bounded counters                     *)
(* ------------------------------------------------------------------ *)

(* IncX and IncY write disjoint families, so a sound schema certifies
   them independent and POR collapses the commuting diamond lattice
   (full: (cap+1)^2 states) down to a single staircase. *)

type paction = IncX | IncY

let pp_paction ppf a =
  Format.pp_print_string ppf (match a with IncX -> "incx" | IncY -> "incy")

let cap = 3

module Pair = struct
  type state = int * int
  type action = paction

  let equal_state = Stdlib.( = )
  let pp_state ppf (x, y) = Format.fprintf ppf "(%d,%d)" x y
  let pp_action = pp_paction
  let enabled (x, y) = function IncX -> x < cap | IncY -> y < cap
  let step (x, y) = function IncX -> (x + 1, y) | IncY -> (x, y + 1)
  let is_external _ = true
  let candidates _rng s = List.filter (enabled s) [ IncX; IncY ]
end

let pair_key (x, y) = Printf.sprintf "%d,%d" x y

let pair_class = function IncX -> "incx" | IncY -> "incy"

(* The honest schema: each class touches its own family only.  The
   classes self-clash (write vs write), discharged as [serialized] —
   actions of one class are totally ordered among themselves, the same
   discharge the stack's send classes use. *)
let pair_schema =
  {
    F.components = [ ("x", "left counter"); ("y", "right counter") ];
    class_of = pair_class;
    classes = [ "incx"; "incy" ];
    class_foot =
      (function
      | "incx" -> [ F.eff F.Write "x" ]
      | "incy" -> [ F.eff F.Write "y" ]
      | c -> failwith c);
    foot =
      (fun _s -> function
        | IncX -> [ F.eff F.Write "x" ]
        | IncY -> [ F.eff F.Write "y" ]);
    fragile = (fun _ -> false);
    visible = (fun _ -> false);
    serialized = (fun _ -> true);
    invariant_reads = [];
    frozen = (fun _ -> []);
    project = (fun (x, y) -> [ ("x", string_of_int x); ("y", string_of_int y) ]);
  }

let test_independent_pairs () =
  let indep = F.independent_pairs pair_schema in
  Alcotest.(check bool) "incx/incy certified" true
    (List.mem ("incx", "incy") indep || List.mem ("incy", "incx") indep);
  (* self-pairs clash (write vs write) and are not certified *)
  Alcotest.(check bool) "self-pair not certified" false
    (List.mem ("incx", "incx") indep);
  let confl = F.conflicts pair_schema in
  Alcotest.(check bool) "self-conflicts derived" true
    (List.exists (fun c -> c.F.ce_a = "incx" && c.F.ce_b = "incx") confl)

let test_eligible_and_ample () =
  let s = (0, 0) in
  let enabled = [ IncX; IncY ] in
  Alcotest.(check bool) "incx eligible" true
    (F.eligible pair_schema s ~frozen_fams:[] ~enabled IncX);
  (match F.ample_of pair_schema s enabled with
  | Some [ _ ] -> ()
  | Some l -> Alcotest.failf "ample has %d actions" (List.length l)
  | None -> Alcotest.fail "expected a singleton ample set");
  (* trivial states are never reduced *)
  Alcotest.(check bool) "singleton enabled -> None" true
    (F.ample_of pair_schema s [ IncX ] = None);
  Alcotest.(check bool) "empty enabled -> None" true
    (F.ample_of pair_schema s [] = None);
  (* a visible class is never eligible *)
  let visible = { pair_schema with F.visible = (fun _ -> true) } in
  Alcotest.(check bool) "visible not eligible" false
    (F.eligible visible s ~frozen_fams:[] ~enabled IncX);
  Alcotest.(check bool) "all visible -> None" true
    (F.ample_of visible s enabled = None);
  (* any enabled fragile class forces full expansion *)
  let fragile = { pair_schema with F.fragile = (fun c -> c = "incy") } in
  Alcotest.(check bool) "fragile enabled -> None" true
    (F.ample_of fragile s enabled = None);
  (* a class reading what the invariants read cannot be deferred *)
  let inv = { pair_schema with F.invariant_reads = [ "x" ] } in
  Alcotest.(check bool) "invariant-read writer not eligible" false
    (F.eligible inv s ~frozen_fams:[] ~enabled IncX);
  (* without the serialized discharge, the self-clash blocks eligibility *)
  let unserial = { pair_schema with F.serialized = (fun _ -> false) } in
  Alcotest.(check bool) "self-clash without discharge" false
    (F.eligible unserial s ~frozen_fams:[] ~enabled IncX);
  (* ...unless the family is frozen *)
  Alcotest.(check bool) "frozen family discharges" true
    (F.eligible unserial s ~frozen_fams:[ "x" ] ~enabled IncX)

let run_pair ?ample () =
  Check.Explorer.run
    (module Pair : Ioa.Automaton.GENERATIVE
      with type state = int * int
       and type action = paction)
    ~key:pair_key ~invariants:[] ~max_states:10_000 ~state_rng:true ?ample
    ~init:(0, 0) ()

let test_pair_por () =
  let full = run_pair () in
  let reduced = run_pair ~ample:(F.ample_of pair_schema) () in
  Alcotest.(check int) "full lattice"
    ((cap + 1) * (cap + 1))
    full.Check.Explorer.stats.Check.Explorer.states;
  Alcotest.(check int) "reduced staircase"
    ((2 * cap) + 1)
    reduced.Check.Explorer.stats.Check.Explorer.states;
  Alcotest.(check bool) "skips counted" true
    (reduced.Check.Explorer.por_skipped > 0);
  Alcotest.(check bool) "full run clean" true
    (full.Check.Explorer.violation = None);
  Alcotest.(check bool) "reduced run clean" true
    (reduced.Check.Explorer.violation = None)

let test_joinable () =
  let candidates s = Pair.candidates (Random.State.make [| 0 |]) s in
  Alcotest.(check bool) "diamond rejoins" true
    (F.joinable ~key:pair_key ~candidates ~step:Pair.step ~depth:2 ~cap:100
       (1, 0) (0, 1));
  (* saturated corners cannot rejoin: (cap,0) can only climb y, (0,cap)
     only x, and the walks meet at (cap,cap) — beyond depth 1 *)
  Alcotest.(check bool) "depth bound respected" false
    (F.joinable ~key:pair_key ~candidates ~step:Pair.step ~depth:1 ~cap:100
       (cap, 0) (0, cap))

(* The audit must catch a schema that lies about its writes: declare
   IncX as writing [y] and the family diff exposes it. *)
let test_audit_catches_lies () =
  let lying =
    {
      pair_schema with
      F.class_foot =
        (function
        | "incx" -> [ F.eff F.Write "y" ]
        | "incy" -> [ F.eff F.Write "y" ]
        | c -> failwith c);
      foot = (fun _ _ -> [ F.eff F.Write "y" ]);
    }
  in
  let candidates s = Pair.candidates (Random.State.make [| 0 |]) s in
  let samples = [ ((0, 0), [ IncX; IncY ]); ((1, 1), [ IncX; IncY ]) ] in
  let rep =
    F.audit lying ~step:Pair.step ~enabled:Pair.enabled ~candidates
      ~key:pair_key ~pp_action:pp_paction ~samples ()
  in
  Alcotest.(check bool) "lying schema caught" true
    (List.exists
       (function F.Footprint_violation _ -> true | _ -> false)
       rep.F.aud_violations);
  let honest =
    F.audit pair_schema ~step:Pair.step ~enabled:Pair.enabled ~candidates
      ~key:pair_key ~pp_action:pp_paction ~samples ()
  in
  Alcotest.(check int) "honest schema audits clean" 0
    (List.length honest.F.aud_violations)

(* ------------------------------------------------------------------ *)
(* Registry soundness: reduced = full verdicts across seeds            *)
(* ------------------------------------------------------------------ *)

(* Entries that exhaust within their registry bound in well under a
   second — the comparison below is exact, not truncation-limited.
   (to-impl and dvs-impl also exhaust but cost ~30s per analyze; they
   stay covered by the @analyze/@lint gates instead.) *)
let exhaustible = [ "vs-spec"; "dvs-spec"; "to-spec" ]

let verdict (r : Analysis.Findings.report) =
  let v =
    List.filter_map
      (function
        | Analysis.Findings.Invariant_violation { invariant; _ } ->
            Some ("violation:" ^ invariant)
        | Analysis.Findings.Step_failure _ -> Some "step-failure"
        | Analysis.Findings.Deadlock _ -> Some "deadlock"
        | _ -> None)
      r.Analysis.Findings.findings
  in
  List.sort_uniq compare v

let analyze_entry ~seed ~reduce name =
  match Reg.find (Reg.all () @ Reg.defects ()) name with
  | None -> Alcotest.failf "registry entry vanished: %s" name
  | Some (Reg.Entry e) ->
      An.analyze ~name:e.name ~max_states:e.max_states ~jobs:1
        ~seed:[| seed |] ~reduce e.subject

let test_reduced_verdicts_agree () =
  QCheck.Test.make ~name:"reduced = full verdicts on exhaustible entries"
    ~count:5
    QCheck.(int_range 1 10_000)
    (fun seed ->
      List.for_all
        (fun name ->
          let r = analyze_entry ~seed ~reduce:true name in
          match r.Analysis.Findings.reduction with
          | None -> QCheck.Test.fail_reportf "%s: no reduction section" name
          | Some red ->
              if not red.Analysis.Findings.red_agrees then
                QCheck.Test.fail_reportf "%s: verdicts diverge (seed %d)" name
                  seed
              else if
                List.exists
                  (function
                    | Analysis.Findings.Reduction_divergence _ -> true
                    | _ -> false)
                  r.Analysis.Findings.findings
              then QCheck.Test.fail_reportf "%s: divergence finding" name
              else true)
        exhaustible)

(* POR and canonicalization separately, driven straight through the
   explorer hooks on one exhaustible entry each: to-spec declares both a
   fine schema and an equivariant+deterministic symmetry, so each hook
   can be exercised alone and the verdicts compared to the full run. *)
let test_hooks_separately () =
  QCheck.Test.make ~name:"POR alone and canon alone agree with full" ~count:5
    QCheck.(int_range 1 10_000)
    (fun seed ->
      List.for_all
        (fun name ->
          match Reg.find (Reg.all ()) name with
          | None -> QCheck.Test.fail_reportf "registry entry vanished: %s" name
          | Some (Reg.Entry e) ->
              let sub = e.subject in
              let invs =
                List.map
                  (fun c -> c.Ioa.Invariant.inv)
                  sub.An.invariants
              in
              let run ?ample ?canon () =
                Check.Explorer.run sub.An.automaton ~key:sub.An.key
                  ~invariants:invs ~seed:[| seed |] ~max_states:e.max_states
                  ~jobs:1 ~state_rng:true ?check_step:sub.An.check_step ?ample
                  ?canon ~init:sub.An.init ()
              in
              let v (o : _ Check.Explorer.outcome) =
                ( (match o.Check.Explorer.violation with
                  | Some x -> Some x.Ioa.Invariant.invariant
                  | None -> None),
                  Option.is_some o.Check.Explorer.step_failure )
              in
              let full = run () in
              let por =
                run ?ample:(Option.map F.ample_of sub.An.footprint) ()
              in
              let canon =
                run
                  ?canon:
                    (Option.map
                       (fun spec -> Sym.canonicalizer spec ~key:sub.An.key)
                       sub.An.symmetry)
                  ()
              in
              if v full <> v por then
                QCheck.Test.fail_reportf "%s: POR diverges (seed %d)" name seed
              else if v full <> v canon then
                QCheck.Test.fail_reportf "%s: canon diverges (seed %d)" name
                  seed
              else if
                canon.Check.Explorer.stats.Check.Explorer.states
                > full.Check.Explorer.stats.Check.Explorer.states
              then
                QCheck.Test.fail_reportf "%s: canon grew the graph" name
              else true)
        [ "vs-spec"; "to-spec" ])

(* Seeded defects must still be reachable under --reduce: a reduction
   that hides a violation is unsound no matter how small its graph. *)
let test_defects_reach_violations_reduced () =
  List.iter
    (fun (Reg.Entry e) ->
      let r =
        An.analyze ~name:e.name ~max_states:20_000 ~jobs:1 ~reduce:true
          e.subject
      in
      let verdicts = verdict r in
      Alcotest.(check bool)
        (e.name ^ " still fails under --reduce")
        true (verdicts <> []);
      match r.Analysis.Findings.reduction with
      | None -> Alcotest.failf "%s: no reduction section" e.name
      | Some red ->
          Alcotest.(check bool)
            (e.name ^ " reduced run reaches the same verdict")
            true red.Analysis.Findings.red_agrees)
    (Reg.defects ())

(* Counterexample reconstruction must survive the schema declarations:
   find_cex (always unreduced, by design — canonicalization breaks
   predecessor traces) still extracts a replayable schedule from every
   seeded defect, and the schedule still classifies via the oracle. *)
let test_cex_replays_with_schemas () =
  List.iter
    (fun (Reg.Entry e) ->
      match An.find_cex ~max_states:20_000 ~jobs:1 ~shrink:false e.subject with
      | Error err -> Alcotest.failf "%s: no counterexample: %s" e.name err
      | Ok cex ->
          let o = An.oracle e.subject ~seed:e.cex_seed in
          Alcotest.(check bool)
            (e.name ^ " reconstructed schedule replays")
            true
            (Check.Shrink.reproduces o cex.An.cex_failure cex.An.cex_raw))
    (Reg.defects ())

(* Write-conformance and swap-replay compare states family by family, so
   a family the projection never returns (renamed, say [next_safe] for
   [next_safe_e]) silently escapes the audit, and one it returns without
   declaring is never certified.  On observed states of every entry with a
   schema, the projected families must be exactly the declared ones. *)
let test_projection_covers_components () =
  List.iter
    (fun (Reg.Entry e) ->
      match e.subject.An.footprint with
      | None -> ()
      | Some sch ->
          let declared = List.sort compare (List.map fst sch.F.components) in
          let states = ref [] in
          let _ =
            Check.Explorer.run e.subject.An.automaton ~key:e.subject.An.key
              ~invariants:[] ~seed:[| 0 |] ~max_states:200 ~jobs:1 ~state_rng:true
              ~observe:(fun o -> states := o.Check.Explorer.obs_state :: !states)
              ~init:e.subject.An.init ()
          in
          Alcotest.(check bool) (e.name ^ ": observed some states") true (!states <> []);
          List.iter
            (fun s ->
              Alcotest.(check (list string))
                (e.name ^ ": projected families = declared components")
                declared
                (List.sort compare (List.map fst (sch.F.project s))))
            !states)
    (Reg.all () @ Reg.defects ())

let qcheck_case = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "reduction"
    [
      ( "footprint",
        [
          Alcotest.test_case "commutation matrix" `Quick test_kinds_commute;
          Alcotest.test_case "instances and clashes" `Quick test_instances;
          Alcotest.test_case "independent pairs" `Quick test_independent_pairs;
          Alcotest.test_case "eligibility and ample sets" `Quick
            test_eligible_and_ample;
          Alcotest.test_case "POR collapses the diamond lattice" `Quick
            test_pair_por;
          Alcotest.test_case "joinability probe" `Quick test_joinable;
          Alcotest.test_case "audit catches a lying schema" `Quick
            test_audit_catches_lies;
          Alcotest.test_case "projections cover exactly the components" `Quick
            test_projection_covers_components;
        ] );
      ( "soundness",
        [
          qcheck_case (test_reduced_verdicts_agree ());
          qcheck_case (test_hooks_separately ());
          Alcotest.test_case "defects still fail under --reduce" `Slow
            test_defects_reach_violations_reduced;
          Alcotest.test_case "counterexamples replay alongside schemas" `Slow
            test_cex_replays_with_schemas;
        ] );
    ]
