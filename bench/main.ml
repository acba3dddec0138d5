(* The experiment harness: regenerates every "table/figure" of the
   reproduction (the paper itself is a theory paper — its artifacts are
   automaton specifications, invariants and refinement theorems; see
   DESIGN.md §3 for the experiment index E1–E13 and EXPERIMENTS.md for the
   recorded results).

   Usage: dune exec bench/main.exe            (all experiments)
          dune exec bench/main.exe -- e6 e8   (a selection)               *)

open Prelude

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row fmt = Printf.printf fmt

(* Every experiment takes an [Obs.Metrics.t] and records its headline
   numbers; the dispatcher snapshots the registry to BENCH_<NAME>.json so
   each table also exists machine-readable (same encoder as bin/trace). *)
let gauge m name v = Obs.Metrics.set m name (float_of_int v)

let slug name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' -> c | _ -> '_')
    name

(* ================================================================== *)
(* E1 — VS specification (Figure 1, Invariant 3.1)                    *)
(* ================================================================== *)

module Vsg = Vs.Vs_gen.Make (Msg_intf.String_msg)

let e1 m =
  section "E1  VS specification (Figure 1): invariants on random + exhaustive runs";
  let seeds = 50 and steps = 400 in
  let violations = ref 0 and states = ref 0 in
  for seed = 1 to seeds do
    let rng = Random.State.make [| seed |] in
    let rng_views = Random.State.make [| seed + 1000 |] in
    let cfg = Vsg.default_config ~payloads:[ "a"; "b" ] ~universe:4 in
    let gen = Vsg.generative cfg ~rng_views in
    let init = Vsg.Spec.initial (Proc.Set.universe 4) in
    let exec, _ = Ioa.Exec.run gen ~rng ~steps ~init in
    states := !states + Ioa.Exec.length exec + 1;
    match
      Ioa.Invariant.check_execution
        [ Vsg.Spec.invariant_3_1; Vsg.Spec.invariant_indices ]
        exec
    with
    | Ok () -> ()
    | Error _ -> incr violations
  done;
  row "random: %d executions, %d states checked, %d violations (expect 0)\n"
    seeds !states !violations;
  gauge m "e1.random.states" !states;
  gauge m "e1.random.violations" !violations;
  (* exhaustive: 2 processes, 1 payload, 2 views *)
  let cfg =
    {
      (Vsg.default_config ~payloads:[ "a" ] ~universe:2) with
      max_views = 2;
      max_sends = 2;
      view_proposals = `All_subsets;
    }
  in
  let gen = Vsg.generative cfg ~rng_views:(Random.State.make [| 0 |]) in
  let key = Vsg.Spec.state_key in
  let outcome =
    Check.Explorer.run gen ~key
      ~invariants:[ Vsg.Spec.invariant_3_1; Vsg.Spec.invariant_indices ]
      ~max_states:150_000 ~init:(Vsg.Spec.initial (Proc.Set.universe 2)) ()
  in
  row "exhaustive (n=2, 2 views, 2 sends): %s, violation=%s\n"
    (Format.asprintf "%a" Check.Explorer.pp_stats outcome.Check.Explorer.stats)
    (match outcome.Check.Explorer.violation with None -> "none" | Some _ -> "FOUND");
  gauge m "e1.exhaustive.states" outcome.Check.Explorer.stats.Check.Explorer.states

(* ================================================================== *)
(* E2 — DVS specification (Figure 2, Invariants 4.1/4.2)              *)
(* ================================================================== *)

module Dg = Core.Dvs_gen.Make (Msg_intf.String_msg)
module Dinv = Core.Dvs_invariants.Make (Msg_intf.String_msg)

let e2 m =
  section "E2  DVS specification (Figure 2): invariants 4.1/4.2 + mutation";
  let seeds = 50 and steps = 400 in
  let violations = ref 0 and states = ref 0 in
  for seed = 1 to seeds do
    let rng = Random.State.make [| seed |] in
    let rng_views = Random.State.make [| seed + 1000 |] in
    let cfg = Dg.default_config ~payloads:[ "a"; "b" ] ~universe:5 in
    let gen = Dg.generative cfg ~rng_views in
    let init = Dg.Spec.initial (Proc.Set.universe 5) in
    let exec, _ = Ioa.Exec.run gen ~rng ~steps ~init in
    states := !states + Ioa.Exec.length exec + 1;
    match Ioa.Invariant.check_execution Dinv.all exec with
    | Ok () -> ()
    | Error _ -> incr violations
  done;
  row "random: %d executions, %d states checked, %d violations (expect 0)\n"
    seeds !states !violations;
  gauge m "e2.random.states" !states;
  gauge m "e2.random.violations" !violations;
  (* mutation: create a disjoint view bypassing the precondition *)
  let s = Dg.Spec.initial (Proc.Set.of_list [ 0; 1; 2 ]) in
  let bad = View.make ~id:1 ~set:(Proc.Set.of_list [ 3; 4 ]) in
  let s' = Dg.Spec.step s (Dg.Spec.Createview bad) in
  row "mutation (bypassed createview precondition): 4.1 holds=%b (expect false)\n"
    (Dinv.invariant_4_1.Ioa.Invariant.holds s');
  let cfg =
    {
      (Dg.default_config ~payloads:[ "a" ] ~universe:2) with
      max_views = 2;
      max_sends = 1;
      view_proposals = `All_subsets;
    }
  in
  let gen = Dg.generative cfg ~rng_views:(Random.State.make [| 0 |]) in
  let key = Dg.Spec.state_key in
  let outcome =
    Check.Explorer.run gen ~key ~invariants:Dinv.all ~max_states:150_000
      ~init:(Dg.Spec.initial (Proc.Set.universe 2))
      ()
  in
  row "exhaustive (n=2, 2 views, 1 send): %s, violation=%s\n"
    (Format.asprintf "%a" Check.Explorer.pp_stats outcome.Check.Explorer.stats)
    (match outcome.Check.Explorer.violation with None -> "none" | Some _ -> "FOUND");
  gauge m "e2.exhaustive.states" outcome.Check.Explorer.stats.Check.Explorer.states

(* ================================================================== *)
(* E3 — DVS-IMPL (Figure 3): invariants 5.1–5.6, faithful vs mutants  *)
(* ================================================================== *)

module Sys_ = Dvs_impl.System.Make (Msg_intf.String_msg)
module Iinv = Dvs_impl.Impl_invariants.Make (Msg_intf.String_msg)

let impl_exec ?(max_views = 5) ?(max_sends = 30) ~schedule ~variant ~seed ~steps
    ~universe () =
  let rng = Random.State.make [| seed |] in
  let rng_views = Random.State.make [| seed + 1000 |] in
  let cfg =
    {
      (Sys_.default_config ~payloads:[ "x"; "y" ] ~universe) with
      schedule;
      variant;
      max_views;
      max_sends;
    }
  in
  let gen = Sys_.generative cfg ~rng_views in
  let init = Sys_.initial ~universe ~p0:(Proc.Set.universe universe) in
  fst (Ioa.Exec.run gen ~rng ~steps ~init)

let e3 m =
  section "E3  DVS-IMPL (Figure 3): invariants 5.1-5.6, faithful vs mutants";
  let seeds = 40 and steps = 400 and universe = 5 in
  let check variant =
    let bad = ref 0 in
    for seed = 1 to seeds do
      let exec =
        impl_exec ~schedule:Sys_.Unrestricted ~variant ~seed ~steps ~universe ()
      in
      match Ioa.Invariant.check_execution Iinv.all exec with
      | Ok () -> ()
      | Error _ -> incr bad
    done;
    !bad
  in
  row "%-14s | seeds with violation | expectation\n" "variant";
  row "%s\n" (String.make 60 '-');
  let report name variant expect =
    let bad = check variant in
    gauge m (Printf.sprintf "e3.%s.violating_seeds" (slug name)) bad;
    row "%-14s | %3d / %d             | %s\n" name bad seeds expect
  in
  report "faithful" Dvs_impl.Vs_to_dvs.Faithful "0 (invariants proven in paper)";
  report "no-majority" Dvs_impl.Vs_to_dvs.No_majority "> 0 (checks discriminate)";
  report "no-info-wait" Dvs_impl.Vs_to_dvs.No_info_wait "> 0";
  report "ignore-amb" Dvs_impl.Vs_to_dvs.Ignore_amb "> 0"

(* ================================================================== *)
(* E4 — Refinement (Figure 4, Theorem 5.9)                            *)
(* ================================================================== *)

module Ref_ = Dvs_impl.Refinement_f.Make (Msg_intf.String_msg)

let e4 m =
  section "E4  Refinement DVS-IMPL -> DVS (Figure 4 / Theorem 5.9)";
  let universe = 4 and steps = 400 in
  let run ~strict_safe ~schedule seeds =
    let bad = ref 0 and steps_checked = ref 0 in
    List.iter
      (fun seed ->
        let exec =
          impl_exec ~schedule ~variant:Dvs_impl.Vs_to_dvs.Faithful ~seed ~steps
            ~universe ()
        in
        steps_checked := !steps_checked + Ioa.Exec.length exec;
        match Ref_.check ~strict_safe ~p0:(Proc.Set.universe universe) exec with
        | Ok () -> ()
        | Error _ -> incr bad)
      seeds;
    (!bad, !steps_checked)
  in
  let seeds = List.init 30 (fun i -> i + 1) in
  let b1, n1 = run ~strict_safe:false ~schedule:Sys_.Unrestricted seeds in
  row "relaxed spec, unrestricted schedule : %d failing / %d execs (%d steps)  expect 0\n"
    b1 (List.length seeds) n1;
  let b2, n2 = run ~strict_safe:false ~schedule:Sys_.Eager_clients seeds in
  row "relaxed spec, eager clients         : %d failing / %d execs (%d steps)  expect 0\n"
    b2 (List.length seeds) n2;
  let b3, n3 = run ~strict_safe:true ~schedule:Sys_.Synchronized seeds in
  row "strict spec,  synchronized schedule : %d failing / %d execs (%d steps)  expect 0\n"
    b3 (List.length seeds) n3;
  let b4, n4 = run ~strict_safe:true ~schedule:Sys_.Unrestricted seeds in
  row "strict spec,  unrestricted schedule : %d failing / %d execs (%d steps)  DVS-SAFE gap (expect > 0)\n"
    b4 (List.length seeds) n4;
  gauge m "e4.relaxed_unrestricted.failing" b1;
  gauge m "e4.relaxed_eager.failing" b2;
  gauge m "e4.strict_synchronized.failing" b3;
  gauge m "e4.strict_unrestricted.failing" b4

(* ================================================================== *)
(* E5 — TO application (Figure 5, Theorem 6.4)                        *)
(* ================================================================== *)

module Timpl = To_broadcast.To_impl
module Tinv = To_broadcast.To_invariants
module Tref = To_broadcast.To_refinement

let to_exec ~seed ~steps ~universe ~max_views =
  let rng = Random.State.make [| seed |] in
  let rng_views = Random.State.make [| seed + 1000 |] in
  let cfg =
    { (Timpl.default_config ~payloads:[ "x"; "y"; "z" ] ~universe) with max_views }
  in
  let gen = Timpl.generative cfg ~rng_views in
  let init = Timpl.initial ~universe ~p0:(Proc.Set.universe universe) in
  fst (Ioa.Exec.run gen ~rng ~steps ~init)

let e5 m =
  section "E5  TO application (Figure 5): invariants 6.1-6.3 + Theorem 6.4";
  let seeds = 40 and steps = 600 and universe = 3 in
  let inv_bad = ref 0 and ref_bad = ref 0 and delivered = ref 0 in
  for seed = 1 to seeds do
    let exec = to_exec ~seed ~steps ~universe ~max_views:4 in
    (match Ioa.Invariant.check_execution Tinv.all exec with
    | Ok () -> ()
    | Error _ -> incr inv_bad);
    (match Tref.check exec with Ok () -> () | Error _ -> incr ref_bad);
    delivered :=
      !delivered
      + List.length
          (List.filter
             (function Timpl.Brcv _ -> true | _ -> false)
             (Ioa.Exec.actions exec))
  done;
  row "invariants 6.1-6.3 + consistency : %d failing / %d execs (expect 0)\n"
    !inv_bad seeds;
  row "refinement to TO (Thm 6.4)       : %d failing / %d execs (expect 0)\n"
    !ref_bad seeds;
  row "client deliveries observed       : %d (non-vacuous)\n" !delivered;
  gauge m "e5.invariant_failing" !inv_bad;
  gauge m "e5.refinement_failing" !ref_bad;
  gauge m "e5.deliveries" !delivered

(* ================================================================== *)
(* E6 — Availability under churn: dynamic vs static                   *)
(* ================================================================== *)

let e6 m =
  section "E6  Availability under churn and drift: dynamic vs static primaries";
  row "%-28s | %-8s | %-8s | %-8s | %-9s | %s\n" "scenario" "static"
    "weighted" "dynamic" "dyn(p=.7)" "dual";
  row "%s\n" (String.make 85 '-');
  let n = 10 in
  let initial = Proc.Set.universe n in
  let trials = 40 and epochs = 200 in
  let scenario name mk_cfg =
    let stat = ref [] and wstat = ref [] and dyn = ref [] and dyn7 = ref [] in
    let dual = ref 0 in
    for t = 1 to trials do
      let rng = Random.State.make [| 7 * t |] in
      let cfg = mk_cfg () in
      let history = Sim.Churn.generate rng cfg in
      let quorum = Membership.Static_quorum.majority ~universe:initial in
      let weighted =
        Membership.Static_quorum.weighted
          ~weights:(List.init n (fun i -> (i, 1 + (i mod 3))))
          ~universe:initial
      in
      let r_static =
        Sim.Availability.run rng history (Sim.Availability.Static quorum)
      in
      let r_weighted =
        Sim.Availability.run rng history (Sim.Availability.Static weighted)
      in
      let r_dyn =
        Sim.Availability.run rng history
          (Sim.Availability.Dynamic { complete_prob = 1.0 })
      in
      let r_dyn7 =
        Sim.Availability.run rng history
          (Sim.Availability.Dynamic { complete_prob = 0.7 })
      in
      stat := r_static.Sim.Availability.availability :: !stat;
      wstat := r_weighted.Sim.Availability.availability :: !wstat;
      dyn := r_dyn.Sim.Availability.availability :: !dyn;
      dyn7 := r_dyn7.Sim.Availability.availability :: !dyn7;
      dual :=
        !dual + r_dyn.Sim.Availability.dual_primaries
        + r_dyn7.Sim.Availability.dual_primaries
    done;
    row "%-28s | %8s | %8s | %8s | %9s | %d\n" name
      (Stats.pct (Stats.mean !stat))
      (Stats.pct (Stats.mean !wstat))
      (Stats.pct (Stats.mean !dyn))
      (Stats.pct (Stats.mean !dyn7))
      !dual;
    let g suffix v = Obs.Metrics.set m ("e6." ^ slug name ^ "." ^ suffix) v in
    g "static" (Stats.mean !stat);
    g "weighted" (Stats.mean !wstat);
    g "dynamic" (Stats.mean !dyn);
    g "dynamic_p70" (Stats.mean !dyn7);
    gauge m ("e6." ^ slug name ^ ".dual_primaries") !dual
  in
  let base () = Sim.Churn.default ~initial ~epochs in
  scenario "calm (splits+merges)" base;
  scenario "heavy partitioning" (fun () ->
      { (base ()) with split_prob = 0.45; merge_prob = 0.2 });
  scenario "crashes, slow recovery" (fun () ->
      { (base ()) with crash_prob = 0.25; recover_prob = 0.05 });
  scenario "drift 10% (universe moves)" (fun () ->
      { (base ()) with drift_prob = 0.10 });
  scenario "drift 25%" (fun () -> { (base ()) with drift_prob = 0.25 });
  scenario "drift 25% + partitions" (fun () ->
      { (base ()) with drift_prob = 0.25; split_prob = 0.35; merge_prob = 0.15 });
  row
    "\nshape check: dynamic >= static everywhere; the gap must widen with drift\n(static quorums refer to retired processes; dynamic primaries follow the\nlive population).  'dual' counts epochs with two primaries (must be 0).\n"

(* ================================================================== *)
(* E7 — Chain condition over dynamic histories                        *)
(* ================================================================== *)

let e7 m =
  section "E7  Chain condition (Cristian / Lotem-Keidar-Dolev) over dynamic histories";
  let initial = Proc.Set.universe 8 in
  let total = ref { Membership.Chain.pairs = 0; intersecting = 0; majority = 0 } in
  let broken = ref 0 in
  for t = 1 to 60 do
    let rng = Random.State.make [| 13 * t |] in
    let cfg =
      {
        (Sim.Churn.default ~initial ~epochs:150) with
        split_prob = 0.35;
        merge_prob = 0.2;
        drift_prob = 0.15;
      }
    in
    let history = Sim.Churn.generate rng cfg in
    let r =
      Sim.Availability.run rng history
        (Sim.Availability.Dynamic { complete_prob = 0.8 })
    in
    let report = Membership.Chain.examine r.Sim.Availability.history in
    if not (Membership.Chain.holds r.Sim.Availability.history) then incr broken;
    total :=
      {
        Membership.Chain.pairs =
          !total.Membership.Chain.pairs + report.Membership.Chain.pairs;
        intersecting =
          !total.Membership.Chain.intersecting + report.Membership.Chain.intersecting;
        majority = !total.Membership.Chain.majority + report.Membership.Chain.majority;
      }
  done;
  row "60 churn histories: %s\n"
    (Format.asprintf "%a" Membership.Chain.pp_report !total);
  row "histories violating the chain condition: %d (expect 0)\n" !broken;
  gauge m "e7.pairs" !total.Membership.Chain.pairs;
  gauge m "e7.intersecting" !total.Membership.Chain.intersecting;
  gauge m "e7.majority" !total.Membership.Chain.majority;
  gauge m "e7.broken_histories" !broken

(* ================================================================== *)
(* E8 — Microbenchmarks (bechamel)                                    *)
(* ================================================================== *)

module Driver = Dvs_impl.Driver.Make (Msg_intf.String_msg)

let bechamel_table m tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  row "%-46s | %12s\n" "benchmark" "time/op";
  row "%s\n" (String.make 62 '-');
  List.iter
    (fun (name, ns) ->
      if not (Float.is_nan ns) then
        Obs.Metrics.set m ("e8.ns_per_op." ^ slug (String.trim name)) ns;
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.1f ns" ns
      in
      row "%-46s | %12s\n" name pretty)
    rows

let view_of ids g = View.make ~id:g ~set:(Proc.Set.of_list ids)

let e8 m =
  section "E8  Microbenchmarks (bechamel): message path, view change, admission";
  let open Bechamel in
  let msgpath n =
    let p0 = Proc.Set.universe n in
    let s0 = Sys_.initial ~universe:n ~p0 in
    Test.make
      ~name:(Printf.sprintf "dvs-impl message path (n=%d)" n)
      (Staged.stage (fun () -> ignore (Driver.broadcast_and_deliver s0 ~src:0 "m")))
  in
  let viewchange n =
    let p0 = Proc.Set.universe n in
    let s0 = Sys_.initial ~universe:n ~p0 in
    let v1 = view_of (List.init n Fun.id) 1 in
    Test.make
      ~name:(Printf.sprintf "dvs-impl full view change (n=%d)" n)
      (Staged.stage (fun () -> ignore (Driver.exec_view_change s0 v1)))
  in
  let p0 = Proc.Set.universe 9 in
  let s0 = Sys_.initial ~universe:9 ~p0 in
  let s1, _ = Driver.exec_view_change s0 (view_of [ 0; 1; 2; 3; 4; 5 ] 1) in
  let s2, _ = Driver.exec_view_change s1 (view_of [ 0; 1; 2; 3 ] 2) in
  let node = Sys_.node s2 0 in
  let candidate = view_of [ 0; 1; 2 ] 3 in
  let dyn_admit =
    Test.make ~name:"admission: dynamic (majority vs use)"
      (Staged.stage (fun () ->
           ignore (Sys_.Node.admits Dvs_impl.Vs_to_dvs.Faithful node candidate)))
  in
  let quorum = Membership.Static_quorum.majority ~universe:p0 in
  let static_admit =
    Test.make ~name:"admission: static majority quorum"
      (Staged.stage (fun () ->
           ignore (Membership.Static_quorum.is_primary quorum (View.set candidate))))
  in
  let abstraction =
    Test.make ~name:"refinement F on a deep state"
      (Staged.stage (fun () -> ignore (Ref_.abstraction s2)))
  in
  let to_path =
    let p0 = Proc.Set.universe 3 in
    let init = Timpl.initial ~universe:3 ~p0 in
    let l = Label.make ~id:Gid.g0 ~seqno:1 ~origin:0 in
    let m = To_broadcast.To_msg.Data (l, "hello") in
    Test.make ~name:"to-impl label+send+order+deliver+confirm"
      (Staged.stage (fun () ->
           let s = Timpl.step init (Timpl.Bcast (0, "hello")) in
           let s = Timpl.step s (Timpl.Label_msg (0, "hello")) in
           let s = Timpl.step s (Timpl.Dvs_gpsnd (0, m)) in
           let s = Timpl.step s (Timpl.Dvs_order (m, 0, Gid.g0)) in
           let s =
             Proc.Set.fold
               (fun dst s ->
                 Timpl.step s (Timpl.Dvs_gprcv { src = 0; dst; msg = m; gid = Gid.g0 }))
               p0 s
           in
           let s =
             Timpl.step s (Timpl.Dvs_safe { src = 0; dst = 0; msg = m; gid = Gid.g0 })
           in
           ignore (Timpl.step s (Timpl.Confirm 0))))
  in
  let grouped =
    Test.make_grouped ~name:"" ~fmt:"%s%s"
      [
        msgpath 3;
        msgpath 5;
        msgpath 9;
        viewchange 3;
        viewchange 5;
        viewchange 9;
        dyn_admit;
        static_admit;
        abstraction;
        to_path;
      ]
  in
  bechamel_table m grouped

(* ================================================================== *)
(* E9 — End-to-end TO throughput across view changes                  *)
(* ================================================================== *)

let e9 m =
  section "E9  TO broadcast end-to-end: protocol cost and delivery across views";
  (* Deterministic protocol-cost series, driven by To_driver: k broadcasts
     fully delivered in a stable view, then a full view change (state
     exchange + registration), then k more broadcasts. *)
  row "%-10s | %-14s | %-16s | %-16s | %s\n" "processes" "steps/bcast"
    "view-change cost" "deliveries" "deliveries/bcast";
  row "%s\n" (String.make 78 '-');
  List.iter
    (fun n ->
      let p0 = Proc.Set.universe n in
      let s = Timpl.initial ~universe:n ~p0 in
      let k = 10 in
      let send_phase s =
        let rec go s i steps delivered =
          if i >= k then (s, steps, delivered)
          else begin
            let s = To_broadcast.To_driver.bcast s (i mod n) (Printf.sprintf "m%d" i) in
            let s, ds, st = To_broadcast.To_driver.drain s in
            go s (i + 1) (steps + st + 1) (delivered + List.length ds)
          end
        in
        go s 0 0 0
      in
      let s, steps1, delivered1 = send_phase s in
      let v1 = View.make ~id:1 ~set:p0 in
      let s, _, vc_steps = To_broadcast.To_driver.view_change s v1 in
      let _, steps2, delivered2 = send_phase s in
      Obs.Metrics.set m
        (Printf.sprintf "e9.n%d.steps_per_bcast" n)
        (float_of_int (steps1 + steps2) /. float_of_int (2 * k));
      gauge m (Printf.sprintf "e9.n%d.view_change_steps" n) vc_steps;
      row "%-10d | %-14.1f | %-16d | %-16d | %.2f\n" n
        (float_of_int (steps1 + steps2) /. float_of_int (2 * k))
        vc_steps
        (delivered1 + delivered2)
        (float_of_int (delivered1 + delivered2) /. float_of_int (2 * k)))
    [ 2; 3; 4; 5; 7; 9 ];
  row
    "\nshape check: deliveries/bcast = group size (total order reaches every\n\
     member); per-broadcast protocol steps and view-change cost grow with the\n\
     group (O(n) deliveries per message, O(n^2) for the exchange).\n";
  (* Randomized variant: fraction of issued broadcasts eventually delivered
     (bounded-step random schedules leave work in flight, so completion < 1;
     longer runs with more view changes *recover* stranded traffic, because
     summaries carry content into the next established view's fullorder). *)
  row "\n%-10s | %-10s | %-12s | %-12s | %s\n" "processes" "views" "bcasts"
    "deliveries" "completion";
  row "%s\n" (String.make 68 '-');
  List.iter
    (fun (universe, max_views) ->
      let bcasts = ref 0 and brcvs = ref 0 and views = ref 0 in
      for seed = 1 to 20 do
        let exec = to_exec ~seed ~steps:1000 ~universe ~max_views in
        List.iter
          (fun a ->
            match a with
            | Timpl.Bcast _ -> incr bcasts
            | Timpl.Brcv _ -> incr brcvs
            | Timpl.Dvs_createview _ -> incr views
            | _ -> ())
          (Ioa.Exec.actions exec)
      done;
      Obs.Metrics.set m
        (Printf.sprintf "e9.n%d_v%d.completion" universe max_views)
        (float_of_int !brcvs /. float_of_int (max 1 (!bcasts * universe)));
      row "%-10d | %-10d | %-12d | %-12d | %s\n" universe !views !bcasts !brcvs
        (Stats.pct
           (float_of_int !brcvs
           /. float_of_int (max 1 (!bcasts * universe)))))
    [ (3, 2); (3, 4); (3, 8); (4, 4); (5, 4) ];
  row
    "\nshape check: completion rises with the number of view changes — the\n\
     state exchange re-orders stranded content in the next established view.\n"

(* ================================================================== *)
(* E10 — The VS engine (lib/vs_impl): refinement + protocol cost       *)
(* ================================================================== *)

module Stk = Vs_impl.Stack.Make (Msg_intf.String_msg)
module Sref = Vs_impl.Stack_refinement.Make (Msg_intf.String_msg)

let e10 m =
  section "E10 VS engine over an async network: Figure 1 refinement + cost";
  (* refinement on random executions with partitions and view changes *)
  let bad = ref 0 and steps_total = ref 0 and rcv = ref 0 and safe = ref 0 in
  let seeds = 30 in
  for seed = 1 to seeds do
    let rng = Random.State.make [| seed |] in
    let rng_views = Random.State.make [| seed + 1000 |] in
    let cfg = Stk.default_config ~payloads:[ "a"; "b" ] ~universe:3 in
    let gen = Stk.generative cfg ~rng_views in
    let init = Stk.initial ~universe:3 ~p0:(Proc.Set.universe 3) () in
    let exec, _ = Ioa.Exec.run gen ~rng ~steps:600 ~init in
    steps_total := !steps_total + Ioa.Exec.length exec;
    List.iter
      (fun a ->
        match a with
        | Stk.Gprcv _ -> incr rcv
        | Stk.Safe _ -> incr safe
        | _ -> ())
      (Ioa.Exec.actions exec);
    match Sref.check ~p0:(Proc.Set.universe 3) exec with
    | Ok () -> ()
    | Error _ -> incr bad
  done;
  row "refinement to Figure 1: %d failing / %d execs (%d steps) — expect 0\n"
    !bad seeds !steps_total;
  row "traffic: %d vs-gprcv, %d vs-safe across the runs (non-vacuous)\n" !rcv !safe;
  gauge m "e10.refinement_failing" !bad;
  gauge m "e10.gprcv" !rcv;
  gauge m "e10.safe" !safe;
  (* protocol cost: automaton steps for one fully-safe message round *)
  row "\n%-10s | %-22s | %s\n" "processes" "steps per safe round" "packets per round";
  row "%s\n" (String.make 52 '-');
  List.iter
    (fun n ->
      let p0 = Proc.Set.universe n in
      let s0 = Stk.initial ~universe:n ~p0 () in
      let s = Stk.step s0 (Stk.Gpsnd (0, "m")) in
      (* drive greedily until the sender's safe indication fires *)
      let rec go s steps packets =
        if steps > 10_000 then (steps, packets)
        else begin
          let next =
            (* priority: outputs, then net delivery, then sends *)
            let out =
              List.find_map
                (fun p ->
                  let e = Stk.engine s p in
                  match Stk.E.deliverable e with
                  | Some (src, msg) -> Some (Stk.Gprcv { src; dst = p; msg })
                  | None -> (
                      match Stk.E.safe_ready e with
                      | Some (src, msg) -> Some (Stk.Safe { src; dst = p; msg })
                      | None -> None))
                (List.init n Fun.id)
            in
            match out with
            | Some a -> Some a
            | None -> (
                let deliver =
                  Prelude.Pg_map.fold
                    (fun (src, dst) _ acc ->
                      match acc with
                      | Some _ -> acc
                      | None -> (
                          match Stk.N.deliverable s.Stk.net ~src ~dst with
                          | Some pkt -> Some (Stk.Deliver { src; dst; pkt })
                          | None -> None))
                    s.Stk.net.Stk.N.channels None
                in
                match deliver with
                | Some a -> Some a
                | None ->
                    List.find_map
                      (fun p ->
                        let e = Stk.engine s p in
                        match Stk.E.fwd_send e with
                        | Some (dst, pkt) -> Some (Stk.Send { src = p; dst; pkt })
                        | None -> (
                            match
                              Stk.E.bcast_sends e @ Stk.E.ack_sends e
                              @ Stk.E.stable_sends e
                            with
                            | (dst, pkt) :: _ -> Some (Stk.Send { src = p; dst; pkt })
                            | [] -> None))
                      (List.init n Fun.id))
          in
          match next with
          | None -> (steps, packets)
          | Some a ->
              let packets =
                match a with Stk.Send _ -> packets + 1 | _ -> packets
              in
              let s' = Stk.step s a in
              let done_ =
                match a with
                | Stk.Safe { dst = 0; _ } -> true
                | _ -> false
              in
              if done_ then (steps + 1, packets) else go s' (steps + 1) packets
        end
      in
      let steps, packets = go s 1 0 in
      gauge m (Printf.sprintf "e10.n%d.steps_per_safe_round" n) steps;
      gauge m (Printf.sprintf "e10.n%d.packets_per_round" n) packets;
      row "%-10d | %-22d | %d\n" n steps packets)
    [ 2; 3; 5; 7; 9 ];
  row
    "\nshape check: a safe round costs O(n) packets per phase (1 fwd + n seq +\nn ack + n stable) — linear growth in group size.\n"

(* ================================================================== *)
(* E11 — Full stack: Figure 3 over the real VS engine                  *)
(* ================================================================== *)

module Full = Full_system.Full_stack.Make (Msg_intf.String_msg)
module Fref = Full_system.Full_refinement.Make (Msg_intf.String_msg)

let e11 m =
  section "E11 Full stack (nodes / VS engine / network): refinement chain closure";
  let seeds = 20 and steps = 700 in
  let bad = ref 0 and inv_bad = ref 0 in
  let packets = ref 0 and deliveries = ref 0 and attempts = ref 0 in
  for seed = 1 to seeds do
    let rng = Random.State.make [| seed |] in
    let rng_views = Random.State.make [| seed + 1000 |] in
    let cfg = Full.default_config ~payloads:[ "x"; "y" ] ~universe:3 in
    let gen = Full.generative cfg ~rng_views in
    let init = Full.initial ~universe:3 ~p0:(Proc.Set.universe 3) in
    let exec, _ = Ioa.Exec.run gen ~rng ~steps ~init in
    List.iter
      (fun a ->
        match a with
        | Full.Stk_send _ -> incr packets
        | Full.Dvs_gprcv _ -> incr deliveries
        | Full.Dvs_newview _ -> incr attempts
        | _ -> ())
      (Ioa.Exec.actions exec);
    (match Fref.check ~universe:3 ~p0:(Proc.Set.universe 3) exec with
    | Ok () -> ()
    | Error _ -> incr bad);
    let abstracted = List.map Fref.abstraction (Ioa.Exec.states exec) in
    match Ioa.Invariant.check_states Iinv.all abstracted with
    | Ok () -> ()
    | Error _ -> incr inv_bad
  done;
  row "refinement Full ⊑ DVS-IMPL      : %d failing / %d execs — expect 0\n" !bad seeds;
  row "invariants 5.1-5.6 (abstracted) : %d failing / %d execs — expect 0\n"
    !inv_bad seeds;
  row "traffic: %d packets on the wire, %d primary attempts, %d client deliveries\n"
    !packets !attempts !deliveries;
  gauge m "e11.refinement_failing" !bad;
  gauge m "e11.invariant_failing" !inv_bad;
  gauge m "e11.packets" !packets;
  gauge m "e11.primary_attempts" !attempts;
  gauge m "e11.deliveries" !deliveries;
  row
    "chain closure: with E4 (DVS-IMPL ⊑ relaxed-DVS) and E10 (engine ⊑ VS),\nevery execution of the real stack is a behaviour of the relaxed DVS\nspecification.  The strict composition fails — see E11b in EXPERIMENTS.md\nand the adversarial scenario in test/test_full_system.ml (finding #4).\n"

(* ================================================================== *)
(* E12 — Ablation: the Isis co-movement property (Section 7)           *)
(* ================================================================== *)

module Props = Dvs_impl.Props.Make (Msg_intf.String_msg)

let e12 m =
  section "E12 Ablation: Isis co-movement property (deliberately not guaranteed)";
  let total = ref { Props.transitions = 0; identical = 0; prefix_consistent = 0 } in
  for seed = 1 to 40 do
    let exec =
      impl_exec ~max_views:8 ~max_sends:40 ~schedule:Sys_.Eager_clients
        ~variant:Dvs_impl.Vs_to_dvs.Faithful ~seed ~steps:1200 ~universe:5 ()
    in
    let c = Props.co_movement exec in
    total :=
      {
        Props.transitions = !total.Props.transitions + c.Props.transitions;
        identical = !total.Props.identical + c.Props.identical;
        prefix_consistent = !total.Props.prefix_consistent + c.Props.prefix_consistent;
      }
  done;
  row "over 40 unrestricted runs: %s\n"
    (Format.asprintf "%a" Props.pp_co_movement !total);
  gauge m "e12.transitions" !total.Props.transitions;
  gauge m "e12.identical" !total.Props.identical;
  gauge m "e12.prefix_consistent" !total.Props.prefix_consistent;
  row
    "shape check: prefix consistency is 100%% (the DVS guarantee); identical\ndeliveries are typically fewer — the stronger Isis property the paper's\nSection 7 discusses omitting.  Applications needing it must not assume it.\n"

(* ================================================================== *)
(* E13 — Ablation: garbage collection (Figure 3's act/amb maintenance) *)
(* ================================================================== *)

let e13 m =
  section "E13 Ablation: garbage collection is what makes the service dynamic";
  (* The motivating shrink chain {0..6} -> {0,1,2,3} -> {0,1,2} -> {0,1}:
     with garbage collection each step only needs a majority of the previous
     primary; without it, every step also needs a majority of every OLDER
     candidate, and the chain jams. *)
  let chain = [ (1, [ 0; 1; 2; 3 ]); (2, [ 0; 1; 2 ]); (3, [ 0; 1 ]) ] in
  row "%-10s | %-22s | %s\n" "variant" "chain step" "admitted?";
  row "%s\n" (String.make 50 '-');
  List.iter
    (fun (name, variant) ->
      let p0 = Proc.Set.universe 7 in
      let s = ref (Sys_.initial ~universe:7 ~p0) in
      List.iter
        (fun (g, members) ->
          let v = View.make ~id:g ~set:(Proc.Set.of_list members) in
          match Driver.attempt_view_change ~variant !s v with
          | Some (s', _) ->
              s := s';
              row "%-10s | %-22s | yes\n" name (Format.asprintf "%a" View.pp v)
          | None ->
              row "%-10s | %-22s | NO\n" name (Format.asprintf "%a" View.pp v))
        chain)
    [ ("faithful", Dvs_impl.Vs_to_dvs.Faithful); ("no-gc", Dvs_impl.Vs_to_dvs.No_gc) ];
  (* and the bookkeeping cost over long random runs *)
  row "\n%-10s | %-10s | %-10s | %s\n" "variant" "max |use|" "mean |use|" "gc events";
  row "%s\n" (String.make 48 '-');
  List.iter
    (fun (name, variant) ->
      let max_use = ref 0 and mean = ref [] and gcs = ref 0 in
      for seed = 1 to 25 do
        let exec =
          impl_exec ~max_views:12 ~max_sends:10 ~schedule:Sys_.Eager_clients
            ~variant ~seed ~steps:1500 ~universe:5 ()
        in
        let u = Props.use_stats exec in
        max_use := max !max_use u.Props.max_use;
        mean := u.Props.mean_use :: !mean;
        gcs := !gcs + u.Props.gc_events
      done;
      gauge m (Printf.sprintf "e13.%s.max_use" (slug name)) !max_use;
      Obs.Metrics.set m (Printf.sprintf "e13.%s.mean_use" (slug name)) (Stats.mean !mean);
      gauge m (Printf.sprintf "e13.%s.gc_events" (slug name)) !gcs;
      row "%-10s | %-10d | %-10.2f | %d\n" name !max_use (Stats.mean !mean) !gcs)
    [ ("faithful", Dvs_impl.Vs_to_dvs.Faithful); ("no-gc", Dvs_impl.Vs_to_dvs.No_gc) ];
  row
    "\nshape check: the faithful algorithm walks the whole shrink chain; the\nno-gc ablation jams once the chain needs to drop below a majority of an\nun-collected older candidate.  Safety is unaffected either way.\n"

(* ================================================================== *)
(* E14 — Fault-injection soak: phased storms over the VS engine        *)
(* ================================================================== *)

let e14 m =
  section
    "E14 Fault-injection soak: lossy/duplicating/reordering transport, \
     phased storms";
  let universe = 3 and phases = 8 and steps_per_phase = 400 in
  let p0 = Proc.Set.universe universe in
  let plan =
    Sim.Faults.schedule
      (Random.State.make [| 99 |])
      ~universe:p0 ~phases ~steps_per_phase
  in
  let rng = Random.State.make [| 14 |] in
  let rng_views = Random.State.make [| 1014 |] in
  (* the default budgets cap a single bounded run; a soak needs traffic in
     every phase (the send budget counts messages alive or sequenced over
     the whole history, so it must cover all phases) *)
  let cfg =
    {
      (Stk.default_config ~payloads:[ "a"; "b" ] ~universe) with
      Stk.max_views = 12;
      max_sends = 300;
    }
  in
  let gen = Stk.generative ~metrics:m cfg ~rng_views in
  row "%-10s | %-10s | %-6s | %-26s | %s\n" "phase" "components" "steps"
    "drop/dup/reorder/rexmit" "refines";
  row "%s\n" (String.make 72 '-');
  let bad = ref 0 and total_steps = ref 0 in
  let rcv = ref 0 and safe = ref 0 in
  let s = ref (Stk.initial ~universe ~p0 ()) in
  List.iter
    (fun (ph : Sim.Faults.phase) ->
      let i = ph.Sim.Faults.intensity in
      let policy =
        if Sim.Faults.is_calm i then Vs_impl.Fault.none
        else
          Vs_impl.Fault.storm ~drop:i.Sim.Faults.drop
            ~duplicate:i.Sim.Faults.duplicate ~reorder:i.Sim.Faults.reorder
            ~steps:ph.Sim.Faults.steps ()
      in
      (* segment start: install the phase's policy (resetting consumed
         budgets) and its connectivity state *)
      let start =
        Stk.step
          (Stk.set_faults !s policy)
          (Stk.Reconfigure (Sim.Partition.components ph.Sim.Faults.partition))
      in
      let rexmit0 = Obs.Metrics.count m "net.retransmits" in
      let exec, _ = Ioa.Exec.run gen ~rng ~steps:ph.Sim.Faults.steps ~init:start in
      total_steps := !total_steps + Ioa.Exec.length exec;
      List.iter
        (fun a ->
          match a with
          | Stk.Gprcv _ -> incr rcv
          | Stk.Safe _ -> incr safe
          | _ -> ())
        (Ioa.Exec.actions exec);
      (* each segment must refine Figure 1 from the abstraction of its own
         start (the spec run continues across policy changes) *)
      let ok =
        match
          Sref.check_from ~spec_initial:(Sref.abstraction start) exec
        with
        | Ok () -> true
        | Error _ ->
            incr bad;
            false
      in
      let fin = Ioa.Exec.last exec in
      row "%-10s | %-10d | %-6d | %3d / %3d / %3d / %5d     | %s\n"
        ph.Sim.Faults.label
        (List.length (Sim.Partition.components ph.Sim.Faults.partition))
        (Ioa.Exec.length exec) fin.Stk.net.Stk.N.dropped
        fin.Stk.net.Stk.N.duplicated fin.Stk.net.Stk.N.reordered
        (Obs.Metrics.count m "net.retransmits" - rexmit0)
        (if ok then "yes" else "NO");
      s := fin)
    plan;
  row
    "\nsoak: %d phases, %d steps, %d vs-gprcv + %d vs-safe outputs; segments \
     failing refinement: %d (expect 0)\n"
    (List.length plan) !total_steps !rcv !safe !bad;
  gauge m "e14.phases" (List.length plan);
  gauge m "e14.steps" !total_steps;
  gauge m "e14.gprcv" !rcv;
  gauge m "e14.safe" !safe;
  gauge m "e14.refinement_failing" !bad

(* ================================================================== *)
(* E16 — Reduced exploration: ample-set POR vs full, same verdicts      *)
(* ================================================================== *)

(* The registry's vs-stack and vs-stack-faulty entries explored twice to
   the same depth — once fully, once under the ample-set filter derived
   from each entry's declared footprint schema (the exact [?ample] the
   analyzer's --reduce mode installs).  The depth cut runs the
   sequential engine, so both sides see the exact BFS graph to that
   depth; the reduced side must reach the same
   violation/step-failure/deadlock verdict on strictly fewer states
   (lossless vs-stack) or honestly report ratio ~1 (vs-stack-faulty,
   whose drop/duplicate/reorder classes clash with every channel push —
   the schema certifies almost nothing, and the numbers say so). *)

let e16 m =
  section "E16 Reduced exploration: ample-set POR vs full, per declared schema";
  let entries = Analysis.Registry.all () in
  (* depth picks: vs-stack's lossless graph keeps shrinking relative to
     the full one as depth grows (0.71 @ 8, 0.50 @ 12, 0.38 @ 15); 15 is
     the deepest cut that keeps the full side under a CI minute.  The
     faulty entry branches much faster; 10 bounds its full side alike. *)
  let subjects = [ ("vs-stack", 15); ("vs-stack-faulty", 10) ] in
  row "%-16s | %-7s | %-8s | %-11s | %-7s | %-11s | %s\n" "entry" "mode"
    "states" "states/sec" "B/state" "por-skipped" "verdicts";
  row "%s\n" (String.make 86 '-');
  List.iter
    (fun (name, max_depth) ->
      match Analysis.Registry.find entries name with
      | None -> failwith ("e16: registry entry vanished: " ^ name)
      | Some (Analysis.Registry.Entry e) ->
          let sub = e.subject in
          let invs =
            List.map (fun c -> c.Ioa.Invariant.inv) sub.Analysis.Analyzer.invariants
          in
          let run_side ~mode ~ample =
            let em = Obs.Metrics.create () in
            let deadlock = ref false in
            let observe o =
              match sub.Analysis.Analyzer.quiescent with
              | Some q
                when o.Check.Explorer.obs_enabled = []
                     && not (q o.Check.Explorer.obs_state) ->
                  deadlock := true
              | _ -> ()
            in
            let a0 = Gc.allocated_bytes () in
            let t0 = Obs.Metrics.now_ms () in
            let outcome =
              Check.Explorer.run sub.Analysis.Analyzer.automaton
                ~key:sub.Analysis.Analyzer.key ~invariants:invs
                ~max_states:2_000_000 ~max_depth ~state_rng:true
                ?check_step:sub.Analysis.Analyzer.check_step ?ample ~observe
                ~metrics:em ~init:sub.Analysis.Analyzer.init ()
            in
            let elapsed = Obs.Metrics.now_ms () -. t0 in
            let alloc = Gc.allocated_bytes () -. a0 in
            let stats = outcome.Check.Explorer.stats in
            let sps =
              if elapsed > 0. then
                float_of_int stats.Check.Explorer.states /. (elapsed /. 1000.)
              else 0.
            in
            let bytes_per_state =
              if stats.Check.Explorer.states > 0 then
                alloc /. float_of_int stats.Check.Explorer.states
              else 0.
            in
            let verdict =
              ( (match outcome.Check.Explorer.violation with
                | Some v -> Some v.Ioa.Invariant.invariant
                | None -> None),
                Option.is_some outcome.Check.Explorer.step_failure,
                !deadlock )
            in
            let pre = Printf.sprintf "e16.%s.%s" (slug name) mode in
            gauge m (pre ^ ".states") stats.Check.Explorer.states;
            gauge m (pre ^ ".transitions") stats.Check.Explorer.transitions;
            gauge m (pre ^ ".depth") stats.Check.Explorer.depth;
            Obs.Metrics.set m (pre ^ ".elapsed_ms") elapsed;
            Obs.Metrics.set m (pre ^ ".states_per_sec") sps;
            Obs.Metrics.set m (pre ^ ".bytes_per_state") bytes_per_state;
            gauge m (pre ^ ".por_skipped") outcome.Check.Explorer.por_skipped;
            (outcome, stats, sps, bytes_per_state, verdict)
          in
          let ample =
            Option.map Analysis.Footprint.ample_of
              sub.Analysis.Analyzer.footprint
          in
          let _, fstats, fsps, fbps, fverdict = run_side ~mode:"full" ~ample:None in
          let red, rstats, rsps, rbps, rverdict = run_side ~mode:"reduced" ~ample in
          let agrees = fverdict = rverdict in
          let ratio =
            if fstats.Check.Explorer.states = 0 then 1.0
            else
              float_of_int rstats.Check.Explorer.states
              /. float_of_int fstats.Check.Explorer.states
          in
          let show_verdict (v, sf, dl) =
            if v = None && (not sf) && not dl then "clean"
            else
              Printf.sprintf "%s%s%s"
                (match v with Some n -> "violation:" ^ n | None -> "")
                (if sf then " step-failure" else "")
                (if dl then " deadlock" else "")
          in
          row "%-16s | %-7s | %-8d | %-11.0f | %-7.0f | %-11s | %s\n" name
            "full" fstats.Check.Explorer.states fsps fbps "-"
            (show_verdict fverdict);
          row "%-16s | %-7s | %-8d | %-11.0f | %-7.0f | %-11d | %s\n" name
            "reduced" rstats.Check.Explorer.states rsps rbps
            red.Check.Explorer.por_skipped (show_verdict rverdict);
          row "%-16s   ratio %.3f, verdict agreement %s\n" name ratio
            (if agrees then "ok" else "FAILED");
          Obs.Metrics.set m
            (Printf.sprintf "e16.%s.reduction_ratio" (slug name))
            ratio;
          gauge m
            (Printf.sprintf "e16.%s.agrees" (slug name))
            (Bool.to_int agrees);
          gauge m
            (Printf.sprintf "e16.%s.peak_heap_bytes" (slug name))
            ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)))
    subjects;
  row
    "\nthe reduced side must agree on every verdict; vs-stack's lossless \
     schema\ncertifies enough independence to drop the state count below \
     40%%, while the\nfaulty entry's fault classes conflict with every \
     push (ratio ~1, honest)\n"

(* ================================================================== *)
(* E17 — Phase-attributed profile of the explorer                     *)
(* ================================================================== *)

(* Where does the string-keyed vs-stack search spend its time?  The
   scoped-phase profiler charges the search's wall time to expand /
   fingerprint / dedup, so the dominant cost is named instead of guessed
   at.  Allocation is accrued by the profiler, so bytes/state here is
   the total the search allocates.  Profiling must not perturb the
   search: the profiled run's stats are checked against an unprofiled
   reference ([.parity]).  A second section profiles the engine paths
   (send / retransmit / deliver) under the adversarial random vs-stack
   execution. *)

let e17 m =
  section "E17 Phase-attributed profile: where the explorer spends time";
  let universe = 2 and p0 = Proc.Set.universe 2 in
  let cfg =
    { (Stk.default_config ~payloads:[ "a" ] ~universe) with
      Stk.max_views = 2; max_sends = 1 }
  in
  let init = Stk.initial ~universe ~p0 () in
  let max_depth = 14 in
  let gen = Stk.generative_pure cfg in
  let explore ?metrics ?prof () =
    Check.Explorer.run gen ~key:Stk.state_key ~invariants:[]
      ~max_states:2_000_000 ~max_depth ~state_rng:true ?metrics ?prof ~init
      ()
  in
  let ref_stats = (explore ()).Check.Explorer.stats in
  row "%-8s | %-11s | %-8s | %-10s | %s\n" "states" "states/sec" "B/state"
    "attributed" "phase split (ms)";
  row "%s\n" (String.make 100 '-');
  let em = Obs.Metrics.create () in
  let prof = Check.Explorer.profile ~jobs:1 in
  let t0 = Obs.Metrics.now_ms () in
  let outcome = explore ~metrics:em ~prof () in
  let elapsed = Obs.Metrics.now_ms () -. t0 in
  Obs.Prof.stop prof;
  let r = Obs.Prof.report prof in
  let stats = outcome.Check.Explorer.stats in
  let states = stats.Check.Explorer.states in
  let sps =
    if elapsed > 0. then float_of_int states /. (elapsed /. 1000.) else 0.
  in
  let bps =
    if states > 0 then r.Obs.Prof.alloc_bytes /. float_of_int states else 0.
  in
  let pre = "e17.vs_stack.jobs1" in
  gauge m (pre ^ ".states") states;
  gauge m (pre ^ ".depth") stats.Check.Explorer.depth;
  Obs.Metrics.set m (pre ^ ".elapsed_ms") elapsed;
  Obs.Metrics.set m (pre ^ ".states_per_sec") sps;
  Obs.Metrics.set m (pre ^ ".bytes_per_state") bps;
  gauge m (pre ^ ".parity") (Bool.to_int (stats = ref_stats));
  Obs.Prof.to_metrics prof ~prefix:pre m;
  (* the explorer's histograms (frontier size, per-state expand latency),
     summarized into the snapshot *)
  List.iter
    (fun (key, short) ->
      match
        List.assoc_opt key (Obs.Metrics.snapshot em).Obs.Metrics.histograms
      with
      | Some (Some s) ->
          gauge m (Printf.sprintf "%s.%s.n" pre short) s.Stats.n;
          Obs.Metrics.set m (Printf.sprintf "%s.%s.mean" pre short) s.Stats.mean;
          Obs.Metrics.set m (Printf.sprintf "%s.%s.p90" pre short) s.Stats.p90;
          Obs.Metrics.set m (Printf.sprintf "%s.%s.max" pre short) s.Stats.max
      | Some None | None -> ())
    [
      ("explorer.frontier", "frontier");
      ("explorer.expand_latency_us", "expand_latency_us");
    ];
  let split =
    String.concat ", "
      (List.map
         (fun t ->
           Printf.sprintf "%s %.0f" t.Obs.Prof.phase
             (Int64.to_float t.Obs.Prof.ns /. 1e6))
         r.Obs.Prof.totals)
  in
  row "%-8d | %-11.0f | %-8.0f | %-10s | %s\n" states sps bps
    (Stats.pct r.Obs.Prof.attributed)
    split;
  (* engine paths under the adversarial random execution: the generative
     stack charges send / retransmit / deliver per transition *)
  let eprof = Obs.Prof.create ~slots:1 () in
  let rng = Random.State.make [| 17 |] in
  let rng_views = Random.State.make [| 1017 |] in
  let steps = 20_000 in
  let fcfg =
    { (Stk.default_config ~payloads:[ "a"; "b" ] ~universe:3) with
      Stk.max_views = 2 }
  in
  let fgen = Stk.generative ~prof:eprof fcfg ~rng_views in
  let finit =
    Stk.initial
      ~faults:(Vs_impl.Fault.storm ~steps ())
      ~universe:3 ~p0:(Proc.Set.universe 3) ()
  in
  let exec, _ = Ioa.Exec.run fgen ~rng ~steps ~init:finit in
  Obs.Prof.stop eprof;
  let er = Obs.Prof.report eprof in
  Obs.Prof.to_metrics eprof ~prefix:"e17.engine" m;
  gauge m "e17.engine.steps" (Ioa.Exec.length exec);
  row "\nengine (vs-stack-faulty, %d random steps): %s\n"
    (Ioa.Exec.length exec)
    (String.concat ", "
       (List.map
          (fun t ->
            Printf.sprintf "%s %.1f ms/%d" t.Obs.Prof.phase
              (Int64.to_float t.Obs.Prof.ns /. 1e6)
              t.Obs.Prof.calls)
          er.Obs.Prof.totals));
  row
    "\nparity: the profiled run must reproduce the unprofiled stats \
     exactly\n(attributed: fraction of the search's wall time the phases \
     explain)\n"


(* ================================================================== *)
(* E18 — Flat codec fingerprinting and hash-compacted throughput mode *)
(* ================================================================== *)

(* E17 puts the vs-stack explorer near 180 KB allocated per state,
   dominated by rendering every state to its canonical string key.  E18
   re-runs the same depth-14 vs-stack search in three configurations:

     string    — the baseline: state_key strings, full seen-table;
     flat-det  — Check.Codec flat encoding feeds the fingerprint, the
                 deterministic seen-table is kept (CI-parity engine);
     flat-thr  — same fingerprints, hash-compacted seen-set: only the
                 128-bit fingerprint per visited state is retained.

   The two flat engines compute identical fingerprints, so they must
   visit identical graphs ([.parity] gates on it).
   The string baseline explores a slightly different graph on this entry
   (the per-state RNG is seeded from the fingerprint and the generator is
   rng-gated), so the headline bytes/state comparison is a
   cost-per-visited-state ratio, not a bit-identical replay.  Allocation
   is accrued via the profiler, as in E17. *)

let e18 m =
  section
    "E18 Flat codec fingerprints + hash compaction: bytes/state, string vs flat";
  let universe = 2 and p0 = Proc.Set.universe 2 in
  let cfg =
    { (Stk.default_config ~payloads:[ "a" ] ~universe) with
      Stk.max_views = 2; max_sends = 1 }
  in
  let init = Stk.initial ~universe ~p0 () in
  let max_depth = 14 in
  let gen = Stk.generative_pure cfg in
  let codec =
    Check.Codec.make ~id:"vs-stack" ~version:1
      (Stk.codec_state Check.Codec.string)
  in
  row "%-9s | %-8s | %-11s | %-10s | %s\n" "engine" "states" "states/sec"
    "B/state" "verdict";
  row "%s\n" (String.make 63 '-');
  let run_engine ~engine =
    (* the string row dedups and seeds on the key alone; the flat rows
       on the codec alone, so they explore the codec-seeded graph *)
    let key, codec =
      if engine = "string" then (Some Stk.state_key, None)
      else (None, Some codec)
    in
    let mode = if engine = "flat_thr" then `Throughput else `Deterministic in
    let prof = Check.Explorer.profile ~jobs:1 in
    let t0 = Obs.Metrics.now_ms () in
    let outcome =
      Check.Explorer.run gen ?key ?codec ~invariants:[] ~max_states:2_000_000
        ~max_depth ~state_rng:true ~mode ~prof ~init ()
    in
    let elapsed = Obs.Metrics.now_ms () -. t0 in
    Obs.Prof.stop prof;
    let r = Obs.Prof.report prof in
    let stats = outcome.Check.Explorer.stats in
    let states = stats.Check.Explorer.states in
    let sps =
      if elapsed > 0. then float_of_int states /. (elapsed /. 1000.) else 0.
    in
    let bps =
      if states > 0 then r.Obs.Prof.alloc_bytes /. float_of_int states else 0.
    in
    let verdict =
      match outcome.Check.Explorer.violation with
      | Some v -> "violation:" ^ v.Ioa.Invariant.invariant
      | None -> "clean"
    in
    let pre = Printf.sprintf "e18.vs_stack.%s.jobs1" engine in
    gauge m (pre ^ ".states") states;
    gauge m (pre ^ ".transitions") stats.Check.Explorer.transitions;
    gauge m (pre ^ ".depth") stats.Check.Explorer.depth;
    Obs.Metrics.set m (pre ^ ".elapsed_ms") elapsed;
    Obs.Metrics.set m (pre ^ ".states_per_sec") sps;
    Obs.Metrics.set m (pre ^ ".bytes_per_state") bps;
    row "%-9s | %-8d | %-11.0f | %-10.0f | %s\n" engine states sps bps verdict;
    (stats, sps, bps, verdict)
  in
  let _, _, string_bps, string_v = run_engine ~engine:"string" in
  let dstats, _, _, det_v = run_engine ~engine:"flat_det" in
  let tstats, _, thr_bps, thr_v = run_engine ~engine:"flat_thr" in
  let parity = dstats = tstats && det_v = thr_v in
  gauge m "e18.vs_stack.jobs1.parity" (Bool.to_int parity);
  gauge m "e18.vs_stack.jobs1.verdicts_agree"
    (Bool.to_int (string_v = det_v && det_v = thr_v));
  let ratio = if thr_bps > 0. then string_bps /. thr_bps else 0. in
  Obs.Metrics.set m "e18.vs_stack.jobs1.bytes_reduction" ratio;
  row "flat-det = flat-thr graph parity %b; bytes/state %.0f -> %.0f (%.1fx)\n"
    parity string_bps thr_bps ratio;
  row
    "\nparity: the two codec-fed engines must visit identical graphs; \
     bytes_reduction\nis the string-baseline allocation per visited state \
     over the hash-compacted one\n"

(* ================================================================== *)
(* E19 — Barrier-free sharded parallel exploration: scaling sweep      *)
(* ================================================================== *)

(* E19 sweeps the barrier-free sharded engine (jobs ∈ {1, 2, 4}) over
   two vs-stack instances —
   a quota-capped clean run and an exhaustive faulty-transport run —
   and records:

     states_per_sec   per job count (jobs:1 is the sequential engine);
     speedup          jobs:n states/sec over jobs:1 — the trajectory
                      gauges the floor gate watches for scaling collapse;
     handoff_batches / ring_full_stalls / parity
                      cross-shard traffic, backpressure, and agreement
                      with a deterministic jobs:1 reference run.

   Speedups are only meaningful with real cores: e19.host_domains
   records what the host offered (not gated — on a 1-core container the
   sweep inverts; the honest number CI should see with >= 4 cores is a
   multiple).  Parity is a hard expectation at every job count.  On the
   exhaustive workload it means exact state/transition agreement with
   the reference; on the capped workload the clean stack's graph is far
   past what a bench step can exhaust, so it instead checks the atomic
   quota-reservation guarantee — every engine at every job count stops
   at exactly the same state count (visit order, and therefore the
   transition tally at the cut, legitimately differs). *)

let e19 m =
  section "E19 Barrier-free sharded exploration: jobs sweep, parity, handoff";
  let universe = 2 and p0 = Proc.Set.universe 2 in
  let codec =
    Check.Codec.make ~id:"vs-stack" ~version:1
      (Stk.codec_state Check.Codec.string)
  in
  gauge m "e19.host_domains" (Domain.recommended_domain_count ());
  let base_cfg = Stk.default_config ~payloads:[ "a" ] ~universe in
  (* (name, cfg, init, max_states, exhaustive): the clean stack is far
     bigger than a bench step can exhaust (>4M states even at
     max_views=0), so it runs quota-capped; the faulty stack's fault
     budgets close the graph and it runs to exhaustion. *)
  let workloads =
    [
      ( "vs_stack",
        { base_cfg with Stk.max_views = 1; max_sends = 1 },
        Stk.initial ~universe ~p0 (),
        400_000,
        false );
      ( "vs_stack_faulty",
        { base_cfg with Stk.max_views = 1; max_sends = 1 },
        Stk.initial ~faults:(Vs_impl.Fault.adversarial ()) ~universe ~p0 (),
        4_000_000,
        true );
    ]
  in
  row "%-16s | %-4s | %-8s | %-11s | %-7s | %-8s | %-6s | %s\n" "workload"
    "jobs" "states" "states/sec" "speedup" "handoffs" "stalls" "parity";
  row "%s\n" (String.make 86 '-');
  List.iter
    (fun (wl, cfg, init, max_states, exhaustive) ->
      let gen = Stk.generative_pure cfg in
      let run ~jobs ~mode =
        let rm = Obs.Metrics.create () in
        let t0 = Obs.Metrics.now_ms () in
        let outcome =
          Check.Explorer.run gen ~codec ~invariants:[] ~max_states ~jobs
            ~state_rng:true ~mode ~metrics:rm ~init ()
        in
        let elapsed = Obs.Metrics.now_ms () -. t0 in
        let stats = outcome.Check.Explorer.stats in
        if exhaustive && stats.Check.Explorer.truncated then
          row "WARNING: %s truncated at %d states — not exhaustive\n" wl
            stats.Check.Explorer.states;
        let sps =
          if elapsed > 0. then
            float_of_int stats.Check.Explorer.states /. (elapsed /. 1000.)
          else 0.
        in
        ( stats,
          sps,
          elapsed,
          Obs.Metrics.count rm "explorer.handoff_batches",
          Obs.Metrics.count rm "explorer.ring_full_stalls" )
      in
      (* Deterministic jobs:1 — the parity reference for the sweep. *)
      let ref_stats, _, _, _, _ = run ~jobs:1 ~mode:`Deterministic in
      let base_sps = ref 0. in
      List.iter
        (fun jobs ->
          let stats, sps, elapsed, handoffs, stalls =
            run ~jobs ~mode:`Throughput
          in
          if jobs = 1 then base_sps := sps;
          let speedup = if !base_sps > 0. then sps /. !base_sps else 0. in
          let parity =
            if exhaustive then
              stats.Check.Explorer.states = ref_stats.Check.Explorer.states
              && stats.Check.Explorer.transitions
                 = ref_stats.Check.Explorer.transitions
              && (not stats.Check.Explorer.truncated)
              && ref_stats.Check.Explorer.depth <= stats.Check.Explorer.depth
            else
              (* Quota-capped: the atomic reservation must make every
                 engine stop at exactly the same count. *)
              stats.Check.Explorer.truncated
              && stats.Check.Explorer.states = ref_stats.Check.Explorer.states
          in
          let pre = Printf.sprintf "e19.%s.jobs%d" wl jobs in
          gauge m (pre ^ ".states") stats.Check.Explorer.states;
          gauge m (pre ^ ".transitions") stats.Check.Explorer.transitions;
          gauge m (pre ^ ".depth") stats.Check.Explorer.depth;
          gauge m (pre ^ ".parity") (Bool.to_int parity);
          gauge m (pre ^ ".handoff_batches") handoffs;
          gauge m (pre ^ ".ring_full_stalls") stalls;
          Obs.Metrics.set m (pre ^ ".elapsed_ms") elapsed;
          Obs.Metrics.set m (pre ^ ".states_per_sec") sps;
          if jobs > 1 then Obs.Metrics.set m (pre ^ ".speedup") speedup;
          row "%-16s | %-4d | %-8d | %-11.0f | %-7.2f | %-8d | %-6d | %b\n" wl
            jobs stats.Check.Explorer.states sps speedup handoffs stalls
            parity)
        [ 1; 2; 4 ])
    workloads;
  row
    "\nspeedup: sharded jobs:n over sharded jobs:1 (sequential engine); \
     parity: exact\nstate/transition agreement with a deterministic jobs:1 \
     reference (exhaustive\nruns) or exact quota-cut state counts (capped \
     runs)\n"

(* ================================================================== *)

let all =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12); ("e13", e13);
    ("e14", e14); ("e16", e16); ("e17", e17); ("e18", e18); ("e19", e19) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst all
  in
  List.iter
    (fun name ->
      let name = String.lowercase_ascii name in
      match List.assoc_opt name all with
      | Some f ->
          let m = Obs.Metrics.create () in
          let t0 = Obs.Metrics.now_ms () in
          f m;
          Obs.Metrics.set m "elapsed_ms" (Obs.Metrics.now_ms () -. t0);
          let path =
            Printf.sprintf "BENCH_%s.json" (String.uppercase_ascii name)
          in
          Obs.Metrics.write_file ~path (Obs.Metrics.snapshot m);
          Printf.printf "\n[%s -> %s]\n" name path
      | None ->
          Printf.eprintf "unknown experiment %S (have: %s)\n" name
            (String.concat ", " (List.map fst all)))
    requested
