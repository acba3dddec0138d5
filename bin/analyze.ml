(* analyze: the static-analysis pass over the automaton registry.

   For each entry, explores the reachable state graph of a small finite
   instance and reports generator soundness/completeness defects, vacuously
   passing invariants, dead action classes, non-quiescent deadlocks and
   state-key injectivity clashes.  Exits nonzero if any entry has findings,
   so `dune build @analyze` is a CI gate.

   With --shrink or --cex-out the tool runs in counterexample mode instead:
   each selected entry is explored for a failure (invariant violation,
   step-property failure, or non-quiescent deadlock), the witness schedule
   is reconstructed from the explorer's predecessor trace, optionally
   minimized with the delta-debugging shrinker, and written to a JSONL
   corpus file.  Seeded-defect entries (defect-*, see --list) carry an
   expected failure class; cex mode exits nonzero if any such entry fails
   to produce it. *)

open Cmdliner

let run_entry ~max_states_override ~max_depth ~jobs ~footprint ~reduce
    (Analysis.Registry.Entry e) =
  let max_states =
    match max_states_override with Some n -> n | None -> e.max_states
  in
  Analysis.Analyzer.analyze ~name:e.name ~max_states ?max_depth ~jobs
    ~footprint ~reduce e.subject

(* --------------------------------------------------------------------- *)
(* Raw exploration mode (--mode deterministic|throughput)                 *)
(* --------------------------------------------------------------------- *)

(* One plain codec-fed exploration per entry: states, depth and verdict
   (violation / step-failure / deadlock / clean), plus states/sec.
   `deterministic` keeps the full seen-table (retained keys,
   parity-auditable); `throughput` switches the explorer to the
   hash-compacted fingerprint set.  At jobs > 1 without a depth bound
   either mode runs on the barrier-free sharded engine.  Both fingerprint
   states from the flat Check.Codec encoding when the entry ships one, so
   clean exhaustive runs agree on counts and verdicts by construction. *)
let run_raw ~selected ~max_states_override ~max_depth ~jobs ~mode =
  let failed = ref false in
  List.iter
    (fun (Analysis.Registry.Entry e) ->
      let max_states =
        match max_states_override with Some n -> n | None -> e.max_states
      in
      let r =
        Analysis.Analyzer.explore_raw ~max_states ?max_depth ~jobs ~mode
          e.subject
      in
      let verdict =
        match (r.Analysis.Analyzer.raw_violation, r.raw_step_failure) with
        | Some inv, _ -> "violation:" ^ inv
        | None, true -> "step-failure"
        | None, false -> if r.raw_deadlock then "deadlock" else "clean"
      in
      (match Analysis.Registry.expected (Analysis.Registry.Entry e) with
      | Some _ when verdict = "clean" ->
          (* Seeded defects must still fail under either engine. *)
          failed := true
      | _ -> ());
      let sps =
        if r.raw_elapsed_ms > 0. then
          float_of_int r.raw_states /. (r.raw_elapsed_ms /. 1000.)
        else 0.
      in
      Format.printf
        "%-24s %8d states %9d transitions  depth %3d%s  %10.0f st/s  %s@."
        e.name r.raw_states r.raw_transitions r.raw_depth
        (if r.raw_truncated then " (truncated)" else "")
        sps verdict)
    selected;
  if !failed then exit 1

(* --------------------------------------------------------------------- *)
(* Counterexample mode                                                    *)
(* --------------------------------------------------------------------- *)

let hunt_entry ~max_states_override ~jobs ~shrink (Analysis.Registry.Entry e) =
  let max_states =
    match max_states_override with Some n -> n | None -> e.max_states
  in
  let seed = e.cex_seed in
  match
    Analysis.Analyzer.find_cex ~max_states ~jobs ~seed ~shrink e.subject
  with
  | Error err -> Error err
  | Ok cex ->
      Ok
        ( cex,
          {
            Check.Cex.entry = e.name;
            seed;
            actions = cex.Analysis.Analyzer.cex_shrunk;
            violation =
              Check.Shrink.failure_to_string cex.Analysis.Analyzer.cex_failure;
            state = Some cex.Analysis.Analyzer.cex_state;
          } )

let run_cex ~selected ~max_states_override ~jobs ~shrink ~cex_out =
  let failed = ref false in
  let collected = ref [] in
  List.iter
    (fun entry ->
      let name = Analysis.Registry.name entry in
      match hunt_entry ~max_states_override ~jobs ~shrink entry with
      | Error err ->
          (match Analysis.Registry.expected entry with
          | Some f ->
              failed := true;
              Format.printf "%-24s FAIL  expected %a, got none: %s@." name
                Check.Shrink.pp_failure f err
          | None -> Format.printf "%-24s no counterexample: %s@." name err)
      | Ok (cex, record) ->
          let raw_len = List.length cex.Analysis.Analyzer.cex_raw in
          let shrunk_len = List.length cex.Analysis.Analyzer.cex_shrunk in
          let class_ok =
            match Analysis.Registry.expected entry with
            | None -> true
            | Some f ->
                Check.Shrink.equal_failure f cex.Analysis.Analyzer.cex_failure
          in
          if not class_ok then begin
            failed := true;
            Format.printf "%-24s FAIL  wrong failure class %s@." name
              record.Check.Cex.violation
          end
          else begin
            Format.printf "%-24s %s  raw %d action%s%s@." name
              record.Check.Cex.violation raw_len
              (if raw_len = 1 then "" else "s")
              (if shrink then Printf.sprintf ", shrunk %d" shrunk_len else "");
            List.iteri
              (fun i a -> Format.printf "  %2d. %s@." (i + 1) a)
              record.Check.Cex.actions;
            collected := record :: !collected
          end)
    selected;
  (match cex_out with
  | Some path when !collected <> [] ->
      Check.Cex.save ~path (List.rev !collected);
      Format.printf "wrote %d counterexample%s to %s@."
        (List.length !collected)
        (if List.length !collected = 1 then "" else "s")
        path
  | Some _ | None -> ());
  if !failed then exit 1

let run () names list json max_states max_depth jobs shrink cex_out footprint
    reduce mode =
  let entries = Analysis.Registry.all () in
  let defect_entries = Analysis.Registry.defects () in
  if list then begin
    List.iter
      (fun e ->
        Format.printf "%-24s %-6s %-20s %-42s %s@." (Analysis.Registry.name e)
          (Analysis.Registry.layer e)
          (Analysis.Registry.schema_kind e)
          (Analysis.Registry.generator e)
          (Analysis.Registry.doc e))
      (entries @ defect_entries);
    exit 0
  end;
  let cex_mode = shrink || Option.is_some cex_out in
  let selected =
    match names with
    | [] -> if cex_mode then defect_entries else entries
    | ns ->
        List.map
          (fun n ->
            match Analysis.Registry.find (entries @ defect_entries) n with
            | Some e -> e
            | None ->
                Format.eprintf "unknown entry %S (try --list)@." n;
                exit 2)
          ns
  in
  match mode with
  | ("deterministic" | "throughput") as m ->
      run_raw ~selected ~max_states_override:max_states ~max_depth ~jobs
        ~mode:(if m = "throughput" then `Throughput else `Deterministic)
  | _ ->
  if cex_mode then
    run_cex ~selected ~max_states_override:max_states ~jobs ~shrink ~cex_out
  else begin
    let reports =
      List.map
        (run_entry ~max_states_override:max_states ~max_depth ~jobs ~footprint
           ~reduce)
        selected
    in
    let total =
      List.fold_left
        (fun n r -> n + List.length r.Analysis.Findings.findings)
        0 reports
    in
    if json then print_endline (Analysis.Findings.reports_json reports)
    else begin
      List.iter
        (fun r -> Format.printf "%a@." Analysis.Findings.pp_report r)
        reports;
      Format.printf "%d entr%s analyzed, %d finding%s@."
        (List.length reports)
        (if List.length reports = 1 then "y" else "ies")
        total
        (if total = 1 then "" else "s")
    end;
    if total > 0 then exit 1
  end

let () =
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ENTRY"
          ~doc:
            "Registry entries to analyze (default: all healthy entries; in \
             counterexample mode, all seeded-defect entries).")
  in
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"List registry entries and exit.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let max_states =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-states" ]
          ~doc:"Override each entry's exploration bound (distinct states).")
  in
  let max_depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-depth" ]
          ~doc:
            "Bound the exploration by BFS depth instead of (or in addition \
             to) states.  A depth at which the graph exhausts makes the \
             --reduce state-count comparison exact rather than \
             truncation-limited.")
  in
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains per exploration.  Above 1 (and without \
             --max-depth) the search runs on the sharded engine: on an \
             exhaustive run findings and counts are identical at every job \
             count, but a --max-states cut admits a scheduling-dependent \
             prefix.")
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "Counterexample mode with minimization: explore each selected \
             entry for a failure, reconstruct the witness schedule and \
             shrink it (ddmin + removal sweep + simplification).")
  in
  let cex_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "cex-out" ] ~docv:"PATH"
          ~doc:
            "Counterexample mode: write every extracted counterexample to \
             this JSONL corpus file (atomically, via a .tmp rename).  \
             Combine with --shrink to store minimized schedules.")
  in
  let footprint =
    Arg.(
      value & flag
      & info [ "footprint" ]
          ~doc:
            "Run the footprint/symmetry analyses on entries declaring a \
             schema: derive the may-conflict relation, certify independent \
             class pairs, audit write conformance, swap-replay commutation \
             and permutation equivariance.  Unsound declarations become \
             findings.")
  in
  let mode =
    Arg.(
      value
      & opt
          (enum
             [
               ("analysis", "analysis");
               ("deterministic", "deterministic");
               ("throughput", "throughput");
             ])
          "analysis"
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Exploration engine.  $(b,analysis) (default) runs the full \
             static-analysis pass.  $(b,deterministic) and $(b,throughput) \
             instead run one plain codec-fed exploration per entry and print \
             states, depth, throughput and the verdict: deterministic keeps \
             the full seen-table, throughput stores only 128-bit \
             fingerprints.  Clean exhaustive runs visit the same graph in \
             every mode, so counts and verdicts agree.")
  in
  let reduce =
    Arg.(
      value & flag
      & info [ "reduce" ]
          ~doc:
            "Additionally run a second, reduced exploration (ample-set \
             partial order reduction and/or orbit canonicalization, as the \
             entry's declarations allow) and record the state-count ratio \
             and verdict agreement in the report.  Implies the --footprint \
             analyses.")
  in
  let term =
    Term.(
      const run $ Obs.Log_cli.setup $ names $ list $ json $ max_states
      $ max_depth $ jobs $ shrink $ cex_out $ footprint $ reduce $ mode)
  in
  let info =
    Cmd.info "analyze" ~version:"1.0.0"
      ~doc:
        "Static analysis of the automaton registry: generator \
         soundness/completeness, invariant vacuity, dead actions, deadlocks \
         and codec-injectivity audits over exhaustively explored small \
         instances.  With --shrink/--cex-out, extracts and minimizes \
         counterexample schedules instead."
  in
  exit (Cmd.eval (Cmd.v info term))
