(* trace: run a registry entry or a simulator scenario with the obs
   instrumentation switched on, dump the event stream as JSONL and print a
   metrics summary.

   Modes:
     --entry NAME       random execution of a registry automaton (per-step
                        events via Ioa.Exec, per-class action counters);
                        with --explore, the analyzer's exhaustive pass
                        instead (explorer progress events and counters)
     --scenario NAME    availability : churn epochs + primary formations (E6)
                        vs-stack     : the composed VS engine with the
                                       net/engine/daemon counters threaded

   Events go to --out FILE (or stdout); the metrics summary goes to stdout,
   as text or, with --json, as one JSON object. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

(* Finish a --profile run: freeze, fold into the metrics registry (so
   --json carries the phase split) and print the human report. *)
let finish_profile metrics ~prefix = function
  | None -> ()
  | Some p ->
      Obs.Prof.stop p;
      Obs.Prof.to_metrics p ~prefix metrics;
      Format.printf "%a@." Obs.Prof.pp_report (Obs.Prof.report p)

let run_entry (Analysis.Registry.Entry e) ~steps ~seed ~explore ~reduce
    ~max_states ~jobs ~mode ~profile metrics sink =
  let open Analysis.Analyzer in
  let sub = e.subject in
  if explore && mode <> `Analysis then begin
    (* Raw engine run, as bin/analyze --mode: no analysis passes, just the
       exploration with the event stream, counters and profile attached —
       jobs > 1 exercises the barrier-free sharded engine. *)
    let max_states =
      match max_states with Some n -> n | None -> e.max_states
    in
    let prof = if profile then Some (Check.Explorer.profile ~jobs) else None in
    let mode =
      match mode with `Throughput -> `Throughput | _ -> `Deterministic
    in
    let r =
      Analysis.Analyzer.explore_raw ~max_states ~jobs ~mode ~sink ~metrics
        ?prof sub
    in
    finish_profile metrics ~prefix:"explorer" prof;
    Logs.info (fun m ->
        m "explored %s (raw): %d states, %d transitions, depth %d in %.1f ms"
          e.name r.raw_states r.raw_transitions r.raw_depth r.raw_elapsed_ms)
  end
  else if explore then begin
    let max_states =
      match max_states with Some n -> n | None -> e.max_states
    in
    let prof = if profile then Some (Check.Explorer.profile ~jobs) else None in
    let r =
      Analysis.Analyzer.analyze ~name:e.name ~max_states ~jobs ~reduce ~sink
        ~metrics ?prof sub
    in
    finish_profile metrics ~prefix:"explorer" prof;
    Logs.info (fun m ->
        m "explored %s: %d states in %.1f ms" e.name
          r.Analysis.Findings.states r.Analysis.Findings.elapsed_ms);
    match r.Analysis.Findings.reduction with
    | Some red ->
        Logs.info (fun m ->
            m "reduced %s: %d of %d states (ratio %.3f), verdicts %s" e.name
              red.Analysis.Findings.red_reduced_states
              red.Analysis.Findings.red_full_states
              red.Analysis.Findings.red_ratio
              (if red.Analysis.Findings.red_agrees then "agree" else "DIVERGE"))
    | None -> ()
  end
  else begin
    let rng = Random.State.make [| seed |] in
    let exec, _stop =
      Obs.Metrics.time metrics "exec.elapsed_ms" (fun () ->
          Ioa.Exec.run ~sink
            ~component:("registry." ^ e.name)
            ~classify:sub.action_class sub.automaton ~rng ~steps
            ~init:sub.init)
    in
    List.iter
      (fun a -> Obs.Metrics.incr metrics ("action." ^ sub.action_class a))
      (Ioa.Exec.actions exec);
    Obs.Metrics.incr metrics ~by:(Ioa.Exec.length exec) "exec.steps"
  end

let run_availability ~procs ~epochs ~seed ~complete metrics sink =
  let initial = Prelude.Proc.Set.universe procs in
  let rng = Random.State.make [| seed |] in
  let cfg = Sim.Churn.default ~initial ~epochs in
  let history = Sim.Churn.generate ~sink rng cfg in
  let quorum = Membership.Static_quorum.majority ~universe:initial in
  let r_static =
    Sim.Availability.run rng history (Sim.Availability.Static quorum)
  in
  let r_dyn =
    Sim.Availability.run ~sink ~metrics rng history
      (Sim.Availability.Dynamic { complete_prob = complete })
  in
  Obs.Metrics.set metrics "sim.availability.static"
    r_static.Sim.Availability.availability;
  Logs.info (fun m ->
      m "availability: static %a / dynamic %a" Sim.Availability.pp_result
        r_static Sim.Availability.pp_result r_dyn)

module Vstack = Vs_impl.Stack.Make (Prelude.Msg_intf.String_msg)
module Vref = Vs_impl.Stack_refinement.Make (Prelude.Msg_intf.String_msg)

let run_vs_stack ~procs ~steps ~seed ~profile metrics sink =
  let p0 = Prelude.Proc.Set.universe procs in
  let cfg = Vstack.default_config ~payloads:[ "x"; "y" ] ~universe:procs in
  let rng = Random.State.make [| seed |] in
  let rng_views = Random.State.make [| seed + 1000 |] in
  let prof = if profile then Some (Obs.Prof.create ~slots:1 ()) else None in
  let gen = Vstack.generative ~metrics ~sink ?prof cfg ~rng_views in
  let exec, _stop =
    Ioa.Exec.run ~sink ~component:"vs-stack" gen ~rng ~steps
      ~init:(Vstack.initial ~universe:procs ~p0 ())
  in
  Obs.Metrics.incr metrics ~by:(Ioa.Exec.length exec) "exec.steps";
  finish_profile metrics ~prefix:"vs_stack" prof

(* The same composed stack under an adversarial transport (storm policy
   scaled to the run length), with the per-execution VS refinement checked
   at the end — a non-refining run exits nonzero so CI soaks catch it. *)
let run_vs_stack_faulty ~procs ~steps ~seed ~profile metrics sink =
  let p0 = Prelude.Proc.Set.universe procs in
  let cfg = Vstack.default_config ~payloads:[ "x"; "y" ] ~universe:procs in
  let faults = Vs_impl.Fault.storm ~steps () in
  let rng = Random.State.make [| seed |] in
  let rng_views = Random.State.make [| seed + 1000 |] in
  let prof = if profile then Some (Obs.Prof.create ~slots:1 ()) else None in
  let gen = Vstack.generative ~metrics ~sink ?prof cfg ~rng_views in
  let exec, _stop =
    Ioa.Exec.run ~sink ~component:"vs-stack-faulty" gen ~rng ~steps
      ~init:(Vstack.initial ~faults ~universe:procs ~p0 ())
  in
  Obs.Metrics.incr metrics ~by:(Ioa.Exec.length exec) "exec.steps";
  finish_profile metrics ~prefix:"vs_stack" prof;
  match Obs.Metrics.time metrics "refine.elapsed_ms" (fun () ->
            Vref.check ~p0 exec)
  with
  | Ok () ->
      Logs.info (fun m ->
          m "vs-stack-faulty: %d steps refine VS (dropped %d, duplicated %d, \
             reordered %d, retransmits %d)"
            (Ioa.Exec.length exec)
            (Obs.Metrics.count metrics "net.dropped")
            (Obs.Metrics.count metrics "net.duplicated")
            (Obs.Metrics.count metrics "net.reordered")
            (Obs.Metrics.count metrics "net.retransmits"))
  | Error f ->
      Format.eprintf "vs-stack-faulty: refinement FAILED:@.%a@."
        Ioa.Refinement.pp_failure f;
      exit 1

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let scenarios = [ "availability"; "vs-stack"; "vs-stack-faulty" ]

let with_sink out f =
  match out with
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          let sink = Obs.Trace.to_channel oc in
          let r = f sink in
          (r, Obs.Trace.emitted sink))
  | None ->
      let sink, drain = Obs.Trace.memory () in
      let r = f sink in
      List.iter
        (fun e -> print_endline (Obs.Trace.event_to_string e))
        (drain ());
      (r, Obs.Trace.emitted sink)

let run () entry scenario list_ out json explore reduce steps max_states jobs
    mode procs epochs complete seed profile =
  if list_ then begin
    List.iter
      (fun e ->
        Format.printf "entry    %-12s %s@." (Analysis.Registry.name e)
          (Analysis.Registry.doc e))
      (Analysis.Registry.all ());
    List.iter (fun s -> Format.printf "scenario %s@." s) scenarios;
    exit 0
  end;
  let metrics = Obs.Metrics.create () in
  let job =
    match (entry, scenario) with
    | Some _, Some _ ->
        Format.eprintf "--entry and --scenario are mutually exclusive@.";
        exit 2
    | Some name, None -> (
        match Analysis.Registry.find (Analysis.Registry.all ()) name with
        | Some e ->
            fun sink ->
              run_entry e ~steps ~seed ~explore ~reduce ~max_states ~jobs
                ~mode ~profile metrics sink
        | None ->
            Format.eprintf "unknown entry %S (try --list)@." name;
            exit 2)
    | None, Some "availability" ->
        fun sink -> run_availability ~procs ~epochs ~seed ~complete metrics sink
    | None, Some "vs-stack" ->
        fun sink -> run_vs_stack ~procs ~steps ~seed ~profile metrics sink
    | None, Some "vs-stack-faulty" ->
        fun sink -> run_vs_stack_faulty ~procs ~steps ~seed ~profile metrics sink
    | None, Some s ->
        Format.eprintf "unknown scenario %S (try --list)@." s;
        exit 2
    | None, None ->
        Format.eprintf "nothing to run: pass --entry NAME or --scenario NAME@.";
        exit 2
  in
  let (), events = with_sink out job in
  let snap = Obs.Metrics.snapshot metrics in
  if json then
    print_endline
      (Obs.Json.to_string
         (Obs.Json.Obj
            [
              ("events", Obs.Json.Int events);
              ("metrics", Obs.Metrics.snapshot_json snap);
            ]))
  else begin
    (match out with
    | Some path -> Format.printf "%d events written to %s@." events path
    | None -> Format.printf "%d events@." events);
    Format.printf "%a@." Obs.Metrics.pp_snapshot snap
  end

let () =
  let entry =
    Arg.(
      value
      & opt (some string) None
      & info [ "entry" ] ~docv:"NAME" ~doc:"Registry entry to run (see --list).")
  in
  let scenario =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Simulator scenario: availability | vs-stack | vs-stack-faulty.")
  in
  let list_ =
    Arg.(value & flag & info [ "list" ] ~doc:"List entries and scenarios, exit.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the JSONL event stream to $(docv) (default: stdout).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the metrics summary as JSON.")
  in
  let explore =
    Arg.(
      value & flag
      & info [ "explore" ]
          ~doc:
            "For --entry: run the analyzer's exhaustive exploration instead \
             of a random execution.")
  in
  let reduce =
    Arg.(
      value & flag
      & info [ "reduce" ]
          ~doc:
            "With --explore: also run the reduced exploration (ample-set \
             partial-order reduction / orbit canonicalization, per the \
             entry's declared schema) and log the state-count ratio and \
             verdict agreement.  Composes with --jobs.")
  in
  let steps =
    Arg.(
      value & opt int 400
      & info [ "steps" ] ~doc:"Steps per random execution.")
  in
  let max_states =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-states" ] ~doc:"Exploration bound for --explore.")
  in
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for --explore; above 1 the search runs on the \
             sharded engine.")
  in
  let mode =
    Arg.(
      value
      & opt
          (enum
             [
               ("analysis", `Analysis);
               ("deterministic", `Deterministic);
               ("throughput", `Throughput);
             ])
          `Analysis
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "With --explore: $(b,analysis) (default) runs the full analyzer \
             pass; $(b,deterministic) and $(b,throughput) run one raw \
             exploration in the corresponding mode instead — at --jobs > 1 \
             on the barrier-free sharded engine, so its progress events, \
             explorer.handoff_batches / ring_full_stalls counters and \
             route/flush/idle profile phases show up in the stream and \
             summary.")
  in
  let procs =
    Arg.(value & opt int 10 & info [ "n"; "procs" ] ~docv:"N" ~doc:"Universe size.")
  in
  let epochs =
    Arg.(value & opt int 200 & info [ "epochs" ] ~doc:"Epochs (availability).")
  in
  let complete =
    Arg.(
      value & opt float 0.8
      & info [ "complete" ]
          ~doc:"Probability a dynamic formation completes (availability).")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Random seed.") in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Attach the scoped-phase profiler: per-worker expand / \
             encode / fingerprint / dedup (plus route / flush / idle at \
             --jobs > 1) attribution for --entry --explore, send / \
             retransmit / deliver for the vs-stack scenarios.  Prints the \
             report and folds it into the metrics summary as gauges.")
  in
  let term =
    Term.(
      const run $ Obs.Log_cli.setup $ entry $ scenario $ list_ $ out $ json
      $ explore $ reduce $ steps $ max_states $ jobs $ mode $ procs $ epochs
      $ complete $ seed $ profile)
  in
  let info =
    Cmd.info "trace" ~version:"1.0.0"
      ~doc:
        "Instrumented runs: execute a registry automaton or a simulator \
         scenario with structured tracing on, dumping JSONL events and a \
         metrics summary."
  in
  exit (Cmd.eval (Cmd.v info term))
