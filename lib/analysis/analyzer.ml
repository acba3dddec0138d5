(* The per-entry cap on reported findings of one kind: analyses keep
   counting past it, but a registry entry with (say) a wrong generator
   would otherwise drown the report in thousands of identical findings. *)
let max_findings_per_kind = 10

(* Completeness cross-checks cost |observations| × |action universe|
   [enabled] evaluations; beyond this many observations we check a
   deterministic stride sample. *)
let completeness_sample = 4_000

(* Dynamic-audit sample budgets: observed states fed to the footprint
   write-conformance / swap-replay audits and to the equivariance audit.
   Stride-sampled so the audits stay a bounded tail on large runs. *)
let audit_sample = 400
let symmetry_sample = 150

type ('s, 'a) subject = {
  automaton :
    (module Ioa.Automaton.GENERATIVE with type state = 's and type action = 'a);
  init : 's;
  key : 's -> string;
  equal_state : ('s -> 's -> bool) option;
  invariants : 's Ioa.Invariant.checked list;
  pp_state : Format.formatter -> 's -> unit;
  pp_action : Format.formatter -> 'a -> unit;
  action_class : 'a -> string;
  all_classes : string list;
  complete_classes : string list;
  exact_candidates : bool;
  quiescent : ('s -> bool) option;
  allowed_dead : string list;
  check_step : (('s, 'a) Ioa.Exec.step -> (unit, string) result) option;
  step_class : string;
  simplify_action : ('a -> 'a list) option;
  layer : string;
  generator : string;
  footprint : ('s, 'a) Footprint.schema option;
  symmetry : ('s, 'a) Symmetry.spec option;
  codec : 's Check.Codec.t;
  instrumented_step : (Obs.Trace.sink -> 's -> 'a -> 's) option;
}

let analyze (type s a) ~name ?(max_states = 20_000) ?max_depth ?(jobs = 1)
    ?(seed = [| 0 |]) ?(footprint = false) ?(reduce = false) ?sink ?metrics
    ?prof (sub : (s, a) subject) =
  let (module A : Ioa.Automaton.GENERATIVE
        with type state = s
         and type action = a) =
    sub.automaton
  in
  (* a reduced run is only as trustworthy as the schema it reduces by, so
     [--reduce] always runs the footprint audits too *)
  let footprint = footprint || reduce in
  let t0 = Obs.Metrics.now_ms () in
  (* Renders each distinct action value once: the completeness pass below
     renders every proposal of every sampled observation, and proposals
     repeat heavily.  Action values are plain immutable data (no closures,
     no cycles), so structural hashing and equality are safe keys; two
     structurally equal actions print the same. *)
  let action_strs : (a, string) Hashtbl.t = Hashtbl.create 256 in
  let action_str a =
    match Hashtbl.find_opt action_strs a with
    | Some str -> str
    | None ->
        let str = Format.asprintf "%a" sub.pp_action a in
        Hashtbl.add action_strs a str;
        str
  in
  let state_str s = Format.asprintf "@[<h>%a@]" sub.pp_state s in
  let observations = ref [] in
  let n_obs = ref 0 in
  let observe o =
    observations := o :: !observations;
    incr n_obs
  in
  (* [state_rng] at every job count: candidate sets become a pure function
     of (seed, state), so the explored graph — and with it every count and
     finding below — is independent of [jobs].  Dedup runs on the codec;
     the key is rendered once per expanded state, only to seed its RNG,
     so the graph is the key-seeded one (see {!Check.Explorer.run}). *)
  let outcome =
    Check.Explorer.run sub.automaton ~key:sub.key ~codec:sub.codec
      ~invariants:(List.map (fun c -> c.Ioa.Invariant.inv) sub.invariants)
      ~seed ~max_states ?max_depth ~jobs ~state_rng:true
      ?check_step:sub.check_step ?check_key:sub.equal_state ~observe ?sink
      ?metrics ?prof ~init:sub.init ()
  in
  let obs = List.rev !observations in
  let stats = outcome.Check.Explorer.stats in
  let truncated = stats.Check.Explorer.truncated in

  (* --- per-class fire counts ------------------------------------- *)
  let fired : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun o ->
      List.iter
        (fun a ->
          let cls = sub.action_class a in
          Hashtbl.replace fired cls (1 + Option.value ~default:0 (Hashtbl.find_opt fired cls)))
        o.Check.Explorer.obs_enabled)
    obs;
  let classes =
    List.map
      (fun cls -> (cls, Option.value ~default:0 (Hashtbl.find_opt fired cls)))
      sub.all_classes
  in

  (* --- invariant coverage / vacuity ------------------------------ *)
  let coverage =
    List.map
      (fun (c : _ Ioa.Invariant.checked) ->
        let held =
          match c.antecedent with
          | None -> None
          | Some ante ->
              Some
                (List.fold_left
                   (fun n o ->
                     if ante o.Check.Explorer.obs_state then n + 1 else n)
                   0 obs)
        in
        {
          Findings.cov_invariant = c.inv.Ioa.Invariant.name;
          cov_states = !n_obs;
          cov_antecedent = held;
        })
      sub.invariants
  in
  (* A bounded exploration cannot support absence claims ("this class is
     dead", "this antecedent never fires"): the witness might live just past
     the cut.  [max_states] sets [truncated]; a [max_depth] cut does not, so
     it is detected from the reached depth.  Either way the would-be
     findings are reported as inconclusive lines instead. *)
  let depth_limited =
    match max_depth with Some d -> stats.Check.Explorer.depth >= d | None -> false
  in
  let limited = truncated || depth_limited in
  let limit_reason =
    if truncated then
      Printf.sprintf "exploration truncated at %d states"
        stats.Check.Explorer.states
    else Printf.sprintf "exploration depth-limited at %d" stats.Check.Explorer.depth
  in
  let vacuous, vacuous_inconclusive =
    if !n_obs = 0 then ([], [])
    else
      let zero =
        List.filter
          (fun (c : Findings.coverage) -> c.cov_antecedent = Some 0)
          coverage
      in
      if limited then
        ( [],
          List.map
            (fun (c : Findings.coverage) ->
              Printf.sprintf
                "vacuity of %S inconclusive: antecedent held in 0 of %d \
                 observed states, but %s"
                c.cov_invariant c.cov_states limit_reason)
            zero )
      else
        ( List.map
            (fun (c : Findings.coverage) ->
              Findings.Vacuous_invariant
                { invariant = c.cov_invariant; states = c.cov_states })
            zero,
          [] )
  in

  (* --- generator soundness: proposed ⊆ enabled (exact entries) ---- *)
  let unsound =
    if not sub.exact_candidates then []
    else begin
      let found = ref [] and n = ref 0 in
      List.iter
        (fun o ->
          List.iter
            (fun a ->
              if not (A.enabled o.Check.Explorer.obs_state a) then begin
                incr n;
                if !n <= max_findings_per_kind then
                  found :=
                    Findings.Unsound_candidate
                      {
                        action = action_str a;
                        state = state_str o.Check.Explorer.obs_state;
                      }
                    :: !found
              end)
            o.Check.Explorer.obs_candidates)
        obs;
      List.rev !found
    end
  in

  (* --- generator completeness over the observed action universe --- *)
  (* Universe: every action ever proposed anywhere whose class is
     completeness-checked, deduplicated by rendering.  Any observed state
     in which such an action is enabled but absent from the proposals is a
     missed schedule — the exploration silently never tries it. *)
  let missed =
    if sub.complete_classes = [] then []
    else begin
      let universe : (string, a) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun o ->
          List.iter
            (fun a ->
              if List.mem (sub.action_class a) sub.complete_classes then begin
                let s = action_str a in
                if not (Hashtbl.mem universe s) then Hashtbl.add universe s a
              end)
            o.Check.Explorer.obs_candidates)
        obs;
      let stride = max 1 (!n_obs / completeness_sample) in
      let found = ref [] and n = ref 0 and i = ref (-1) in
      List.iter
        (fun o ->
          incr i;
          if !i mod stride = 0 then begin
            let proposed =
              List.fold_left
                (fun acc a -> action_str a :: acc)
                []
                o.Check.Explorer.obs_candidates
            in
            Hashtbl.iter
              (fun str a ->
                if
                  A.enabled o.Check.Explorer.obs_state a
                  && not (List.mem str proposed)
                then begin
                  incr n;
                  if !n <= max_findings_per_kind then
                    found :=
                      Findings.Missed_enabled
                        {
                          action = str;
                          cls = sub.action_class a;
                          state = state_str o.Check.Explorer.obs_state;
                        }
                      :: !found
                end)
              universe
          end)
        obs;
      List.rev !found
    end
  in

  (* --- dead classes ----------------------------------------------- *)
  let dead, dead_inconclusive =
    let never =
      List.filter_map
        (fun (cls, n) ->
          if n = 0 && not (List.mem cls sub.allowed_dead) then Some cls
          else None)
        classes
    in
    if limited then
      ( [],
        List.map
          (fun cls ->
            Printf.sprintf "dead-class %S inconclusive: never fired, but %s"
              cls limit_reason)
          never )
    else (List.map (fun cls -> Findings.Dead_class { cls }) never, [])
  in

  (* --- deadlocks --------------------------------------------------- *)
  let deadlocks =
    match sub.quiescent with
    | None -> []
    | Some quiescent ->
        let found = ref [] and n = ref 0 in
        List.iter
          (fun o ->
            if
              o.Check.Explorer.obs_enabled = []
              && not (quiescent o.Check.Explorer.obs_state)
            then begin
              incr n;
              if !n <= max_findings_per_kind then
                found :=
                  Findings.Deadlock
                    {
                      state = state_str o.Check.Explorer.obs_state;
                      depth = o.Check.Explorer.obs_depth;
                    }
                  :: !found
            end)
          obs;
        List.rev !found
  in

  (* --- explorer-level findings ------------------------------------ *)
  let explorer_findings =
    List.concat
      [
        (match outcome.Check.Explorer.violation with
        | Some v ->
            [
              Findings.Invariant_violation
                {
                  invariant = v.Ioa.Invariant.invariant;
                  state = state_str v.Ioa.Invariant.state;
                };
            ]
        | None -> []);
        (match outcome.Check.Explorer.step_failure with
        | Some (step, detail) ->
            [
              Findings.Step_failure
                { action = action_str step.Ioa.Exec.action; detail };
            ]
        | None -> []);
        (match outcome.Check.Explorer.key_clash with
        | Some (a, b) ->
            [ Findings.Key_clash { state_a = state_str a; state_b = state_str b } ]
        | None -> []);
      ]
  in

  (* --- static footprints, audits, symmetry ------------------------- *)
  (* Deterministic enabled-candidate function matching the explorer's
     per-state RNG discipline — what the audits replay against. *)
  let candidates_of s =
    let fp = Check.Fingerprint.of_string (sub.key s) in
    let rng = Random.State.make (Check.Fingerprint.seed fp seed) in
    List.filter (A.enabled s) (A.candidates rng s)
  in
  let sample target =
    let stride = max 1 (!n_obs / target) in
    let i = ref (-1) in
    List.filter_map
      (fun o ->
        incr i;
        if !i mod stride = 0 then
          Some (o.Check.Explorer.obs_state, o.Check.Explorer.obs_enabled)
        else None)
      obs
  in
  let cap_per_kind fs =
    let seen : (string, int) Hashtbl.t = Hashtbl.create 4 in
    List.filter
      (fun f ->
        let k = Findings.kind f in
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen k) in
        Hashtbl.replace seen k n;
        n <= max_findings_per_kind)
      fs
  in
  let footprint_summary, footprint_findings =
    if not footprint then (None, [])
    else
      match sub.footprint with
      | None -> (None, [])
      | Some sch ->
          let confl =
            List.map
              (fun (c : Footprint.conflict_entry) ->
                ( c.ce_a,
                  c.ce_b,
                  Format.asprintf "%a vs %a" Footprint.pp_eff c.ce_eff_a
                    Footprint.pp_eff c.ce_eff_b ))
              (Footprint.conflicts sch)
          in
          let indep = Footprint.independent_pairs sch in
          let aud =
            Footprint.audit sch
              ~step:(fun s a -> A.step s a)
              ~enabled:A.enabled ~candidates:candidates_of ~key:sub.key
              ~pp_action:sub.pp_action ~samples:(sample audit_sample) ()
          in
          let fp_findings =
            List.map
              (function
                | Footprint.Footprint_violation { fv_cls; fv_fam; fv_action } ->
                    Findings.Footprint_violation
                      { cls = fv_cls; fam = fv_fam; action = fv_action }
                | Footprint.Unsound_certification { uc_a; uc_b; uc_detail } ->
                    Findings.Unsound_certification
                      { cls_a = uc_a; cls_b = uc_b; detail = uc_detail })
              aud.Footprint.aud_violations
          in
          let sym_checked, sym_witness, sym_findings, equivariant =
            match sub.symmetry with
            | None -> (0, None, [], None)
            | Some spec ->
                let saud =
                  Symmetry.audit spec
                    ~step:(fun s a -> A.step s a)
                    ~enabled:A.enabled ~candidates:(Some candidates_of)
                    ~key:sub.key ~project:sch.Footprint.project
                    ~pp_action:sub.pp_action
                    ~checks:
                      (List.map
                         (fun (c : _ Ioa.Invariant.checked) ->
                           (c.inv.Ioa.Invariant.name, c.inv.Ioa.Invariant.holds))
                         sub.invariants)
                    ~samples:(sample symmetry_sample) ()
                in
                let witness =
                  match (spec.Symmetry.equivariant, saud.Symmetry.sym_violations)
                  with
                  | false, v :: _ ->
                      Some
                        (Printf.sprintf "[%s]%s %s" v.Symmetry.sv_perm
                           (if v.sv_fam = "" then ""
                            else Printf.sprintf " (family %s)" v.sv_fam)
                           v.sv_detail)
                  | _ -> None
                in
                let findings =
                  if spec.Symmetry.equivariant then
                    List.map
                      (fun (v : Symmetry.violation) ->
                        Findings.Symmetry_broken
                          {
                            perm = v.sv_perm;
                            fam = v.sv_fam;
                            detail = v.sv_detail;
                          })
                      saud.Symmetry.sym_violations
                  else []
                in
                ( saud.Symmetry.sym_checked,
                  witness,
                  findings,
                  Some spec.Symmetry.equivariant )
          in
          ( Some
              {
                Findings.fp_classes = List.length sch.Footprint.classes;
                fp_conflicts = confl;
                fp_independent = indep;
                fp_audit_steps = aud.Footprint.aud_steps;
                fp_audit_pairs = aud.Footprint.aud_pairs;
                fp_audit_joined = aud.Footprint.aud_joined;
                fp_equivariant = equivariant;
                fp_sym_checked = sym_checked;
                fp_sym_witness = sym_witness;
              },
            cap_per_kind (fp_findings @ sym_findings) )
  in

  (* --- reduced exploration (opt-in): POR + orbit canonicalization --- *)
  (* The full run above stays authoritative for every analysis; the
     reduced run only has to reach the same verdicts with fewer states.
     Counterexample extraction ({!find_cex}) always runs unreduced —
     canonicalization rewrites successors to orbit representatives, which
     breaks predecessor-trace reconstruction. *)
  let reduction, reduction_findings, reduction_inconclusive =
    if not reduce then (None, [], [])
    else begin
      let ample = Option.map Footprint.ample_of sub.footprint in
      let canon =
        match sub.symmetry with
        | Some spec when spec.Symmetry.equivariant && spec.Symmetry.deterministic
          ->
            Some (Symmetry.canonicalizer spec ~key:sub.key)
        | _ -> None
      in
      match (ample, canon) with
      | None, None ->
          ( Some
              {
                Findings.red_full_states = stats.Check.Explorer.states;
                red_reduced_states = stats.Check.Explorer.states;
                red_ratio = 1.0;
                red_por_skipped = 0;
                red_orbit_collapsed = 0;
                red_agrees = true;
              },
            [],
            [
              "reduction unavailable: no footprint schema and no \
               equivariant+deterministic symmetry declared";
            ] )
      | _ ->
          let red_deadlock = ref false in
          let red_observe o =
            match sub.quiescent with
            | Some q
              when o.Check.Explorer.obs_enabled = []
                   && not (q o.Check.Explorer.obs_state) ->
                red_deadlock := true
            | _ -> ()
          in
          let red =
            Check.Explorer.run sub.automaton ~key:sub.key ~codec:sub.codec
              ~invariants:
                (List.map (fun c -> c.Ioa.Invariant.inv) sub.invariants)
              ~seed ~max_states ?max_depth ~jobs ~state_rng:true
              ?check_step:sub.check_step ?ample ?canon ~observe:red_observe
              ?metrics ~init:sub.init ()
          in
          let rstats = red.Check.Explorer.stats in
          let v_name (o : _ Check.Explorer.outcome) =
            match o.violation with
            | Some v -> Some v.Ioa.Invariant.invariant
            | None -> None
          in
          let full_deadlock = deadlocks <> [] in
          let full_verdict =
            ( v_name outcome,
              Option.is_some outcome.Check.Explorer.step_failure,
              full_deadlock )
          in
          let red_verdict =
            ( v_name red,
              Option.is_some red.Check.Explorer.step_failure,
              !red_deadlock )
          in
          let agrees = full_verdict = red_verdict in
          let red_limited =
            rstats.Check.Explorer.truncated
            || match max_depth with
               | Some d -> rstats.Check.Explorer.depth >= d
               | None -> false
          in
          let describe (v, sf, dl) =
            Printf.sprintf "violation=%s step-failure=%b deadlock=%b"
              (Option.value ~default:"none" v)
              sf dl
          in
          let findings =
            if agrees || limited || red_limited then []
            else
              [
                Findings.Reduction_divergence
                  {
                    detail =
                      Printf.sprintf "full: %s; reduced: %s"
                        (describe full_verdict) (describe red_verdict);
                  };
              ]
          in
          let inconclusive =
            if (not agrees) && (limited || red_limited) then
              [
                Printf.sprintf
                  "reduction verdict comparison inconclusive (%s): full %s \
                   vs reduced %s"
                  limit_reason (describe full_verdict) (describe red_verdict);
              ]
            else []
          in
          let ratio =
            if stats.Check.Explorer.states = 0 then 1.0
            else
              float_of_int rstats.Check.Explorer.states
              /. float_of_int stats.Check.Explorer.states
          in
          (match metrics with
          | None -> ()
          | Some m -> Obs.Metrics.observe m "analyzer.reduction_ratio" ratio);
          ( Some
              {
                Findings.red_full_states = stats.Check.Explorer.states;
                red_reduced_states = rstats.Check.Explorer.states;
                red_ratio = ratio;
                red_por_skipped = red.Check.Explorer.por_skipped;
                red_orbit_collapsed = red.Check.Explorer.orbit_collapsed;
                red_agrees = agrees;
              },
            findings,
            inconclusive )
    end
  in

  let elapsed_ms = Obs.Metrics.now_ms () -. t0 in
  let states_per_sec =
    if elapsed_ms > 0. then
      float_of_int stats.Check.Explorer.states /. (elapsed_ms /. 1000.)
    else 0.
  in
  (match metrics with
  | None -> ()
  | Some m -> Obs.Metrics.observe m "analyzer.elapsed_ms" elapsed_ms);
  {
    Findings.entry = name;
    states = stats.Check.Explorer.states;
    transitions = stats.Check.Explorer.transitions;
    depth = stats.Check.Explorer.depth;
    truncated;
    classes;
    coverage;
    findings =
      explorer_findings @ unsound @ missed @ dead @ vacuous @ deadlocks
      @ footprint_findings @ reduction_findings;
    inconclusive =
      dead_inconclusive @ vacuous_inconclusive @ reduction_inconclusive;
    footprint = footprint_summary;
    reduction;
    elapsed_ms;
    states_per_sec;
  }

(* ------------------------------------------------------------------ *)
(* Raw exploration (codec-seeded / throughput-mode runs)               *)
(* ------------------------------------------------------------------ *)

type raw = {
  raw_states : int;
  raw_transitions : int;
  raw_depth : int;
  raw_truncated : bool;
  raw_violation : string option;
  raw_step_failure : bool;
  raw_deadlock : bool;
  raw_elapsed_ms : float;
}

let explore_raw (type s a) ?(max_states = 20_000) ?max_depth ?(jobs = 1)
    ?(seed = [| 0 |]) ?(mode = `Deterministic) ?sink ?metrics ?prof
    (sub : (s, a) subject) =
  (* Same dead-end notion as [find_cex]: a state with no enabled candidate
     that the subject does not declare quiescent.  Observation only — it
     cannot perturb the explored graph, and the sharded explorer
     serializes [observe] calls. *)
  let deadlock = ref false in
  let observe =
    match sub.quiescent with
    | None -> None
    | Some q ->
        Some
          (fun o ->
            if
              (not !deadlock)
              && o.Check.Explorer.obs_enabled = []
              && not (q o.Check.Explorer.obs_state)
            then deadlock := true)
  in
  let t0 = Obs.Metrics.now_ms () in
  let outcome =
    Check.Explorer.run sub.automaton ~codec:sub.codec
      ~invariants:(List.map (fun c -> c.Ioa.Invariant.inv) sub.invariants)
      ~seed ~max_states ?max_depth ~jobs ~state_rng:true
      ?check_step:sub.check_step ~mode ?observe ?sink ?metrics ?prof
      ~init:sub.init ()
  in
  let stats = outcome.Check.Explorer.stats in
  {
    raw_states = stats.Check.Explorer.states;
    raw_transitions = stats.Check.Explorer.transitions;
    raw_depth = stats.Check.Explorer.depth;
    raw_truncated = stats.Check.Explorer.truncated;
    raw_violation =
      Option.map
        (fun v -> v.Ioa.Invariant.invariant)
        outcome.Check.Explorer.violation;
    raw_step_failure = Option.is_some outcome.Check.Explorer.step_failure;
    raw_deadlock = !deadlock;
    raw_elapsed_ms = Obs.Metrics.now_ms () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* Counterexample extraction                                           *)
(* ------------------------------------------------------------------ *)

let oracle (sub : ('s, 'a) subject) ~seed =
  {
    Check.Shrink.automaton = sub.automaton;
    init = sub.init;
    key = sub.key;
    seed;
    invariants = List.map (fun c -> c.Ioa.Invariant.inv) sub.invariants;
    check_step = sub.check_step;
    step_class = sub.step_class;
    quiescent = sub.quiescent;
    pp_action = sub.pp_action;
    simplify = sub.simplify_action;
  }

type cex = {
  cex_failure : Check.Shrink.failure;
  cex_raw : string list;
  cex_shrunk : string list;
  cex_state : string;
}

let find_cex (type s a) ?(max_states = 20_000) ?max_depth ?(jobs = 1)
    ?(seed = [| 0 |]) ?(shrink = true) (sub : (s, a) subject) =
  let (module A : Ioa.Automaton.GENERATIVE
        with type state = s
         and type action = a) =
    sub.automaton
  in
  (* Capture the first deadlock the exploration observes (BFS order at
     jobs:1; scheduling order — still some reachable deadlock — at
     jobs:n).  The explorer itself has no deadlock notion: a state with
     no enabled candidate simply has no successors. *)
  let deadlock = ref None in
  let observe =
    match sub.quiescent with
    | None -> None
    | Some q ->
        Some
          (fun o ->
            if
              Option.is_none !deadlock
              && o.Check.Explorer.obs_enabled = []
              && not (q o.Check.Explorer.obs_state)
            then deadlock := Some o.Check.Explorer.obs_state)
  in
  let outcome =
    Check.Explorer.run sub.automaton ~key:sub.key
      ~invariants:(List.map (fun c -> c.Ioa.Invariant.inv) sub.invariants)
      ~seed ~max_states ?max_depth ~jobs ~state_rng:true ~trace:true
      ?check_step:sub.check_step ?observe ~init:sub.init ()
  in
  let trace =
    match outcome.Check.Explorer.trace with
    | Some t -> t
    | None -> assert false (* requested above *)
  in
  let render = Check.Cex.render sub.pp_action in
  (* The target state to walk back to, the failure class it witnesses, and
     any trailing actions past the target (the step-failure's own firing). *)
  let target =
    match
      ( outcome.Check.Explorer.violation,
        outcome.Check.Explorer.step_failure,
        !deadlock )
    with
    | Some v, _, _ ->
        Ok
          ( v.Ioa.Invariant.state,
            Check.Shrink.Invariant v.Ioa.Invariant.invariant,
            [] )
    | None, Some (st, _), _ ->
        Ok
          ( st.Ioa.Exec.pre,
            Check.Shrink.Step sub.step_class,
            [ render st.Ioa.Exec.action ] )
    | None, None, Some s -> Ok (s, Check.Shrink.Deadlock, [])
    | None, None, None -> Error "no failure found in the explored graph"
  in
  match target with
  | Error _ as e -> e
  | Ok (target, failure, suffix) -> (
      (* The flat encoding of the failure state — the wire form corpus
         entries carry alongside the schedule. *)
      let cex_state = Check.Codec.to_hex (Check.Codec.encode sub.codec target) in
      match
        Check.Cex.reconstruct sub.automaton ~key:sub.key ~seed ~trace
          ~init:sub.init ~target ()
      with
      | Error e -> Error ("path reconstruction failed: " ^ e)
      | Ok path ->
          let raw = List.map render path @ suffix in
          let o = oracle sub ~seed in
          if not (Check.Shrink.reproduces o failure raw) then
            Error "reconstructed schedule does not replay to the failure"
          else
            let shrunk =
              if shrink then Check.Shrink.shrink o failure raw else raw
            in
            Ok
              { cex_failure = failure; cex_raw = raw; cex_shrunk = shrunk;
                cex_state })
