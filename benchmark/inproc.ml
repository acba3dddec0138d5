(* The two in-process workloads: [explore] (one hash-compacted
   exhaustive exploration of vs-stack-faulty) and [registry_gate] (the
   full analysis pass over every healthy registry entry).  Both run one
   fixed unit of work on one domain.

   The traced variant wraps the subject's automaton, key, equality,
   invariants and step property with {!Tracer} boundaries, and hands
   the explorer a {!Check.Explorer.profile} for its own phases.  An
   explorer phase's self time is its profiled time minus the wrapped
   calls it contains: candidates/enabled/step, invariants and the step
   property run inside "expand", the string key inside "fingerprint",
   the equality audit inside "dedup". *)

open Analysis

(* Exploration bounds: [explore] caps at 2M states (the exhaustive graph
   has 1.38M), [registry_gate] at 60k per entry; quick mode shrinks both
   for the smoke test. *)
let explore_bound ~is_quick = if is_quick then 50_000 else 2_000_000
let gate_bound ~is_quick = if is_quick then 2_000 else 60_000

(* Pinned outcomes, (states, transitions): the exhaustive vs-stack-faulty
   graph, and each gate entry at its bound.  Quick-mode pins come from
   the same runs at the quick bounds. *)
let explore_pin ~is_quick =
  if is_quick then (50_001, 154_545) else (1_375_213, 6_560_824)

let gate_pins ~is_quick =
  if is_quick then
    [
      ("vs-spec", (2_001, 4_452));
      ("dvs-spec", (364, 697));
      ("dvs-impl", (2_001, 3_623));
      ("to-spec", (241, 440));
      ("to-impl", (2_001, 4_226));
      ("vs-stack", (2_001, 3_398));
      ("vs-stack-faulty", (2_001, 4_103));
      ("full-stack", (2_001, 3_410));
    ]
  else
    [
      ("vs-spec", (2_045, 4_534));
      ("dvs-spec", (364, 697));
      ("dvs-impl", (60_001, 149_612));
      ("to-spec", (241, 440));
      ("to-impl", (60_001, 143_011));
      ("vs-stack", (60_001, 130_936));
      ("vs-stack-faulty", (60_001, 190_067));
      ("full-stack", (60_001, 122_970));
    ]

let now = Unix.gettimeofday

(* ---- traced subjects ---- *)

let b_candidates = 0
let b_enabled = 1
let b_step = 2
let b_key = 3
let b_audit = 4
let b_invariants = 5
let b_check_step = 6

let boundaries =
  [
    "model.candidates"; "model.enabled"; "model.step"; "analysis.key";
    "analysis.audit"; "analysis.invariants"; "analysis.check_step";
  ]

(* Proposed candidates, a count the tracer's per-call counts miss. *)
let proposed = ref 0

let instrument (type s a) tr (sub : (s, a) Analyzer.subject) :
    (s, a) Analyzer.subject =
  let (module A : Ioa.Automaton.GENERATIVE
        with type state = s
         and type action = a) =
    sub.Analyzer.automaton
  in
  let module W = struct
    include A

    (* the explorer calls [candidates] once per expanded state: each
       expansion is one request *)
    let candidates rng s =
      let t0 = Tracer.now () in
      Tracer.request tr "check.explorer.expand" t0;
      let r = A.candidates rng s in
      Tracer.record tr b_candidates t0 (Tracer.now ());
      proposed := !proposed + List.length r;
      r

    let enabled s a =
      let t0 = Tracer.now () in
      let r = A.enabled s a in
      Tracer.record tr b_enabled t0 (Tracer.now ());
      r

    let step s a =
      let t0 = Tracer.now () in
      let r = A.step s a in
      Tracer.record tr b_step t0 (Tracer.now ());
      r
  end in
  let timed b f x =
    let t0 = Tracer.now () in
    let r = f x in
    Tracer.record tr b t0 (Tracer.now ());
    r
  in
  {
    sub with
    automaton = (module W);
    key = timed b_key sub.key;
    equal_state =
      Option.map
        (fun eq a b ->
          let t0 = Tracer.now () in
          let r = eq a b in
          Tracer.record tr b_audit t0 (Tracer.now ());
          r)
        sub.equal_state;
    invariants =
      List.map
        (fun (c : s Ioa.Invariant.checked) ->
          { c with inv = { c.inv with holds = timed b_invariants c.inv.holds } })
        sub.invariants;
    check_step = Option.map (timed b_check_step) sub.check_step;
  }

(* One exploration's profiler, plus a sink that freezes it when the
   explorer reports "done" (what follows is the analyzer's
   post-exploration work) and records the wrapped calls' busy time
   between the probe's creation and that point. *)
type probe = {
  prof : Obs.Prof.t;
  sink : Obs.Trace.sink;
  done_at : float ref;
  busy_inside : int array;
}

let probe tr =
  let prof = Check.Explorer.profile ~jobs:1 in
  let start = Array.copy tr.Tracer.busy_ns in
  let done_at = ref 0. and busy_inside = Array.make (Array.length start) 0 in
  let sink =
    Obs.Trace.callback (fun e ->
        if e.Obs.Trace.cls = "done" then begin
          Obs.Prof.stop prof;
          done_at := now ();
          Array.iteri (fun b t0 -> busy_inside.(b) <- tr.busy_ns.(b) - t0) start
        end)
  in
  { prof; sink; done_at; busy_inside }

(* Explorer phase totals over several probes, minus the wrapped calls
   that ran inside each phase before "done". *)
let explorer_layers probes ~states ~transitions =
  let reports = List.map (fun p -> Obs.Prof.report p.prof) probes in
  let phase name =
    List.fold_left
      (fun acc (r : Obs.Prof.report) ->
        List.fold_left
          (fun acc (t : Obs.Prof.phase_total) ->
            if t.phase = name then acc +. Int64.to_float t.ns else acc)
          acc r.totals)
      0. reports
  in
  let inside b =
    List.fold_left
      (fun acc p -> acc +. float_of_int p.busy_inside.(b))
      0. probes
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. reports in
  let wall = sum (fun r -> Int64.to_float r.Obs.Prof.wall_ns) in
  let attributed = sum (fun r -> r.attributed *. Int64.to_float r.wall_ns) in
  let ms ns = Float.max 0. ns /. 1e6 in
  let model = inside b_candidates +. inside b_enabled +. inside b_step in
  [
    ( "check.explorer.expand_self_ms",
      ms (phase "expand" -. model -. inside b_invariants -. inside b_check_step) );
    ("check.codec.encode_ms", ms (phase "encode"));
    ("check.fingerprint.hash_ms", ms (phase "fingerprint" -. inside b_key));
    ("check.fingerprint.dedup_ms", ms (phase "dedup" -. inside b_audit));
    ("check.explorer.unattributed_frac", 1. -. (attributed /. wall));
    ( "check.explorer.new_state_ratio",
      float_of_int states /. float_of_int (max 1 transitions) );
    ("check.explorer.alloc_mb", sum (fun r -> r.alloc_bytes) /. 1048576.);
  ]

let model_layers tr =
  [
    ("model.candidates_ms", Tracer.busy_ms tr b_candidates);
    ("model.enabled_ms", Tracer.busy_ms tr b_enabled);
    ("model.step_ms", Tracer.busy_ms tr b_step);
    ("model.candidates", float_of_int !proposed);
    ( "model.fired_ratio",
      float_of_int (Tracer.calls tr b_step) /. float_of_int (max 1 !proposed) );
    ("analysis.key_ms", Tracer.busy_ms tr b_key);
    ("analysis.key_calls", float_of_int (Tracer.calls tr b_key));
    ("analysis.audit_ms", Tracer.busy_ms tr b_audit);
    ("analysis.invariants_ms", Tracer.busy_ms tr b_invariants);
    ("analysis.check_step_ms", Tracer.busy_ms tr b_check_step);
  ]

(* ---- shared measurement ---- *)

(* Set-up: building the registry and resolving the workload's entries —
   everything before the first state is explored.  It takes tens of
   microseconds, so it is timed on the monotonic clock, repeated, and
   the median reported. *)
let setup ~is_quick names =
  let once () =
    let t0 = Tracer.now () in
    let all = Registry.all () in
    let es = List.map (fun n -> Option.get (Registry.find all n)) names in
    (float_of_int (Tracer.now () - t0) /. 1e9, es)
  in
  let runs = List.init (if is_quick then 3 else 101) (fun _ -> once ()) in
  (Outcome.median (List.map fst runs), snd (List.hd runs))

type meter = { t0 : float; cpu0 : Procfs.cpu; alloc0 : float }

let start () =
  { t0 = now (); cpu0 = Procfs.self_cpu (); alloc0 = Gc.allocated_bytes () }

(* The e2e metrics of [ops] units of work done since [m]. *)
let e2e m ~setup_s ~ops =
  let wall = now () -. m.t0 in
  let cpu = Procfs.total (Procfs.sub (Procfs.self_cpu ()) m.cpu0) in
  let alloc = Gc.allocated_bytes () -. m.alloc0 in
  let ops = float_of_int (max 1 ops) in
  [
    ("setup_s", setup_s);
    ("ops_per_s", ops /. wall);
    ("verdict_s", wall);
    ("cpu_us_per_op", cpu *. 1e6 /. ops);
    ("alloc_bytes_per_op", alloc /. ops);
    ("peak_rss_mb", Procfs.hwm_mb 0);
  ]

let check_counts what ~got:(s, t) ~pinned:(ps, pt) =
  if s = ps && t = pt then []
  else
    [
      Printf.sprintf "%s: %d states / %d transitions, pinned %d / %d" what s t ps
        pt;
    ]

(* ---- explore ---- *)

(* The exhaustive graph depends on the explorer seed (vs-stack-faulty's
   generator draws from the per-state RNG), and its counts are pinned at
   [|0|]: this workload has no seeded input. *)
let explore ~is_quick ~trace ~spans_path =
  let setup_s, entries = setup ~is_quick [ "vs-stack-faulty" ] in
  let (Registry.Entry e) = List.hd entries in
  let tr = Tracer.create boundaries in
  let sub, pr =
    if trace then (instrument tr e.subject, Some (probe tr)) else (e.subject, None)
  in
  let m = start () in
  let raw =
    Analyzer.explore_raw ~max_states:(explore_bound ~is_quick) ~jobs:1
      ~seed:[| 0 |] ~mode:`Throughput
      ?prof:(Option.map (fun p -> p.prof) pr)
      ?sink:(Option.map (fun p -> p.sink) pr)
      sub
  in
  let e2e = e2e m ~setup_s ~ops:raw.raw_states in
  let failures =
    check_counts "explore"
      ~got:(raw.raw_states, raw.raw_transitions)
      ~pinned:(explore_pin ~is_quick)
    @ List.filter_map Fun.id
        [
          (if raw.raw_truncated <> is_quick then
             Some "explore: truncation differs from the pinned run"
           else None);
          Option.map (fun v -> "explore: invariant violated: " ^ v) raw.raw_violation;
          (if raw.raw_step_failure then Some "explore: step property failed" else None);
          (if raw.raw_deadlock then Some "explore: deadlock" else None);
        ]
  in
  let layer =
    match pr with
    | None -> []
    | Some p ->
        Tracer.finish tr;
        Tracer.write tr ~path:spans_path ~workload:"explore";
        explorer_layers [ p ] ~states:raw.raw_states ~transitions:raw.raw_transitions
        @ model_layers tr
  in
  Outcome.make ~workload:"explore" ~failures ~attempted:1
    ~failed:(if failures = [] then 0 else 1)
    ~e2e ~layer

(* ---- registry_gate ---- *)

(* Like [explore], no seeded input: every entry explores from seed [|0|],
   in a fixed order (the order changes which garbage is live when the
   largest entry peaks, and with it peak memory). *)
let registry_gate ~is_quick ~trace ~spans_path =
  let setup_s, entries = setup ~is_quick Outcome.gate_entries in
  let pins = gate_pins ~is_quick in
  let tr = Tracer.create boundaries in
  let m = start () in
  let runs =
    List.map
      (fun (Registry.Entry e) ->
        let pr = if trace then Some (probe tr) else None in
        let sub = if trace then instrument tr e.subject else e.subject in
        let t0 = now () in
        let r =
          Analyzer.analyze ~name:e.name ~max_states:(gate_bound ~is_quick) ~jobs:1
            ~seed:[| 0 |]
            ?prof:(Option.map (fun p -> p.prof) pr)
            ?sink:(Option.map (fun p -> p.sink) pr)
            sub
        in
        let t1 = now () in
        let errors =
          (if r.Findings.findings <> [] then
             [
               Printf.sprintf "registry_gate: %s has %d findings" e.name
                 (List.length r.findings);
             ]
           else [])
          @ check_counts ("registry_gate: " ^ e.name)
              ~got:(r.states, r.transitions)
              ~pinned:(List.assoc e.name pins)
        in
        (e.name, r, (t1 -. t0) *. 1000., errors, Option.map (fun p -> (p, t1)) pr))
      entries
  in
  let sum f = List.fold_left (fun n (_, r, _, _, _) -> n + f r) 0 runs in
  let states = sum (fun r -> r.Findings.states) in
  let e2e = e2e m ~setup_s ~ops:states in
  let failures = List.concat_map (fun (_, _, _, errs, _) -> errs) runs in
  let layer =
    if not trace then []
    else begin
      Tracer.finish tr;
      Tracer.write tr ~path:spans_path ~workload:"registry_gate";
      let probes = List.filter_map (fun (_, _, _, _, p) -> p) runs in
      let post_ms =
        List.fold_left
          (fun acc (p, t1) -> acc +. ((t1 -. !(p.done_at)) *. 1000.))
          0. probes
      in
      explorer_layers (List.map fst probes) ~states
        ~transitions:(sum (fun r -> r.transitions))
      @ model_layers tr
      @ [ ("analysis.post_ms", post_ms) ]
      @ List.map
          (fun (name, _, ms, _, _) -> ("analysis.entry." ^ name ^ ".wall_ms", ms))
          runs
    end
  in
  Outcome.make ~workload:"registry_gate" ~failures ~attempted:(List.length runs)
    ~failed:(List.length (List.filter (fun (_, _, _, errs, _) -> errs <> []) runs))
    ~e2e ~layer
