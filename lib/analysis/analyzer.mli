(** The static-analysis pass over one packaged automaton.

    [analyze] explores the automaton's reachable state graph with
    {!Check.Explorer.run} under a small finite environment, observing the
    candidate set and its enabled subset at every expanded state, and then
    runs these analyses over the observations:

    - {b soundness}: on [exact_candidates] entries, every proposed candidate
      must be enabled in the proposing state;
    - {b completeness}: for each class in [complete_classes], any action of
      the observed action universe that is enabled in an observed state must
      be among the generator's proposals there (budgeted input classes —
      client sends, view creation — are deliberately not listed, since their
      generators legitimately withhold proposals);
    - {b vacuity}: invariants carrying antecedent metadata whose antecedent
      held in no observed state are flagged — their green check proved
      nothing;
    - {b dead classes}: declared action classes that never fired (unless in
      [allowed_dead]);
    - {b deadlock}: states with no proposed candidates that fail the
      entry's [quiescent] predicate;
    - {b dedup audit}: with [equal_state] present, the explorer retains one
      representative state per codec fingerprint and reports the first
      conflated pair as a [key-clash] (an injectivity bug in [codec]
      invalidates every other number).

    Both explorations ([analyze]'s full run and its [--reduce] run) dedup
    on the subject's [codec] and render [key] once per expanded state,
    only to seed that state's candidate RNG, so they explore exactly the
    key-seeded graph a key-deduped run would (see {!Check.Explorer.run}).

    Coverage analyses (vacuity, dead classes) cannot conclude on an
    exploration truncated by [max_states]/[max_depth]: absence of evidence
    in a partial graph is not evidence of absence.  Their would-be findings
    are reported in the report's [inconclusive] list instead of as findings,
    so a truncated run can neither fail [@analyze] spuriously nor silently
    drop the signal.  Soundness and invariant checks remain valid on the
    explored region.

    With [~footprint:true], entries declaring a {!Footprint.schema} get the
    static conflict/independence derivation plus the dynamic
    write-conformance and swap-replay audits, and entries declaring a
    {!Symmetry.spec} get the equivariance audit; results land in the
    report's [footprint] summary and any violations become findings.  With
    [~reduce:true], a second exploration runs under ample-set POR (from the
    schema) and/or orbit canonicalization (from an equivariant +
    deterministic symmetry spec), and the report's [reduction] section
    records the state-count ratio and whether the two runs reached the same
    invariant / step-property / deadlock verdicts.  The full run stays
    authoritative for every other analysis, and {!find_cex} always runs
    unreduced (canonicalization breaks predecessor-trace reconstruction). *)

type ('s, 'a) subject = {
  automaton :
    (module Ioa.Automaton.GENERATIVE with type state = 's and type action = 'a);
  init : 's;
  key : 's -> string;
      (** canonical state rendering: seeds each expanded state's candidate
          RNG in {!analyze}, and is the dedup identity of {!find_cex} and
          its {!Check.Cex}/{!Check.Shrink} replays; must induce the same
          equivalence classes as [codec] *)
  equal_state : ('s -> 's -> bool) option;
      (** enables the dedup-injectivity audit (costs memory) *)
  invariants : 's Ioa.Invariant.checked list;
  pp_state : Format.formatter -> 's -> unit;
  pp_action : Format.formatter -> 'a -> unit;
  action_class : 'a -> string;  (** coarse classifier, e.g. "gprcv" *)
  all_classes : string list;  (** every class the automaton can emit *)
  complete_classes : string list;
      (** classes whose enabled actions the generator must always propose *)
  exact_candidates : bool;
      (** generator contract: proposes only enabled actions *)
  quiescent : ('s -> bool) option;
      (** when [Some q], a candidate-free state [s] with [not (q s)] is a
          deadlock finding; [None] skips the check *)
  allowed_dead : string list;
      (** documented baseline: classes allowed to never fire under this
          entry's small configuration *)
  check_step : (('s, 'a) Ioa.Exec.step -> (unit, string) result) option;
      (** per-transition property checked during exploration (e.g. a
          refinement step correspondence); the first failure is reported
          and stops the search *)
  step_class : string;
      (** failure-class label for [check_step] failures (e.g.
          ["refinement"]) — the [Check.Shrink.Step] payload *)
  simplify_action : ('a -> 'a list) option;
      (** per-action simpler variants for {!Check.Shrink}'s simplification
          pass *)
  layer : string;
      (** which layer of the paper's architecture the entry exercises:
          "spec", "impl", "stack" or "full" — shown by [bin/analyze --list] *)
  generator : string;
      (** one-line description of the candidate generator's kind (exact /
          over-approximating, RNG-gated or deterministic) — shown by
          [bin/analyze --list] *)
  footprint : ('s, 'a) Footprint.schema option;
      (** declared state-component schema and per-class footprints; enables
          the footprint analyses and ample-set POR *)
  symmetry : ('s, 'a) Symmetry.spec option;
      (** declared permutation action; enables the equivariance audit and —
          when equivariant and deterministic — orbit canonicalization *)
  codec : 's Check.Codec.t;
      (** versioned flat binary encoding of the state: the dedup identity
          of {!analyze} and {!explore_raw} (and with it hash-compacted
          throughput exploration), and the counterexample wire form
          ([cex_state]) *)
  instrumented_step : (Obs.Trace.sink -> 's -> 'a -> 's) option;
      (** a trace-emitting re-step: apply one action to a state while
          emitting the entry's runtime trace vocabulary into the sink
          (e.g. [Stack.step ~sink]).  Must compute the same post-state as
          the automaton's transition.  Lets counterexample schedules from
          {!find_cex} / corpus replay be re-driven through the online
          {!Obs.Monitor} rules — the monitor false-positive/negative
          audit.  [None] for entries without a runtime trace vocabulary. *)
}

(** [?jobs] (default 1) runs the exploration on that many OCaml 5 domains
    ({!Check.Explorer.run}'s sharded engine; a [?max_depth] bound keeps it
    on the sequential engine).  The analyzer always enables the explorer's
    per-state RNG discipline, so on an exhaustive run the explored graph —
    and every count and finding — is independent of the job count, the
    reported depth aside (a discovery depth at [jobs > 1]); a [max_states]
    cut keeps the exact state count but a scheduling-dependent prefix.  The
    subject's automaton must be thread-safe for [jobs > 1] (true of the
    [generative_pure]-packaged registry entries).

    [?sink]/[?metrics]/[?prof] are forwarded to {!Check.Explorer.run}
    (progress events, [explorer.*] counters, the scoped-phase profile); the
    analyzer additionally times the whole pass — reported as
    [elapsed_ms]/[states_per_sec] in the result and observed into the
    [analyzer.elapsed_ms] histogram when [?metrics] is given.  None of them
    affects the explored graph or the findings. *)
val analyze :
  name:string ->
  ?max_states:int ->
  ?max_depth:int ->
  ?jobs:int ->
  ?seed:int array ->
  ?footprint:bool ->
  ?reduce:bool ->
  ?sink:Obs.Trace.sink ->
  ?metrics:Obs.Metrics.t ->
  ?prof:Obs.Prof.t ->
  ('s, 'a) subject ->
  Findings.report

(** One raw exploration's headline numbers — no analyses, no retained
    observations; what [bin/analyze --mode] and the mode-parity tests
    compare across engines. *)
type raw = {
  raw_states : int;
  raw_transitions : int;
  raw_depth : int;
  raw_truncated : bool;
  raw_violation : string option;  (** first violated invariant, if any *)
  raw_step_failure : bool;
  raw_deadlock : bool;
      (** a dead-end state (no enabled candidate) the subject does not
          declare quiescent was expanded — always [false] on subjects
          without a [quiescent] predicate *)
  raw_elapsed_ms : float;
}

(** [explore_raw sub] runs one plain exploration of the subject (per-state
    RNG forced, as everywhere in the analyzer) and returns its stats and
    verdicts.  States are fingerprinted from their flat {!Check.Codec}
    encoding alone, and the per-state RNG is seeded from that same
    fingerprint: no key is ever rendered, so on entries with RNG-gated
    generators the explored graph differs from {!analyze}'s key-seeded one
    (state counts are comparable across the two only on
    deterministic-generator entries).
    [~mode:`Throughput] switches the explorer to the hash-compacted
    seen-set ({!Check.Explorer.run}'s [?mode]); [jobs > 1] without a depth
    bound runs either mode on the barrier-free sharded engine.  On clean
    exhaustive runs the explored graph and all verdicts are identical
    across the two modes by construction (what the parity suite asserts);
    sharded truncated runs keep exact state counts but a
    scheduling-dependent prefix, and sharded depths are discovery depths. *)
val explore_raw :
  ?max_states:int ->
  ?max_depth:int ->
  ?jobs:int ->
  ?seed:int array ->
  ?mode:[ `Deterministic | `Throughput ] ->
  ?sink:Obs.Trace.sink ->
  ?metrics:Obs.Metrics.t ->
  ?prof:Obs.Prof.t ->
  ('s, 'a) subject ->
  raw

(** The {!Check.Shrink} oracle for a subject: same automaton, invariants,
    step property and quiescence notion the analyzer explores with, so a
    replayed schedule is classified exactly as the exploration would. *)
val oracle :
  ('s, 'a) subject -> seed:int array -> ('s, 'a) Check.Shrink.oracle

(** A counterexample extracted from one exploration: the failure class,
    the raw BFS witness schedule (reconstructed from the explorer's
    predecessor trace) and its shrunk form.  All rendered — feed to
    {!Check.Cex.t}. *)
type cex = {
  cex_failure : Check.Shrink.failure;
  cex_raw : string list;
  cex_shrunk : string list;
  cex_state : string;
      (** hex of the framed flat encoding of the failure state *)
}

(** [find_cex sub] explores with [~trace:true] (per-state RNG forced, as
    everywhere in the analyzer) and, if the exploration fails — invariant
    violation, step-property failure, or an observed non-quiescent
    deadlock — reconstructs the full action schedule from the initial
    state and (by default) shrinks it.  The raw schedule is validated by
    replay before shrinking; [Error] explains a clean exploration or a
    reconstruction failure.  At [jobs:1] the witness is the BFS-first
    failure; at [jobs:n] reconstruction still works (fingerprint-guided
    re-search) but which same-class failure is witnessed is
    scheduling-dependent. *)
val find_cex :
  ?max_states:int ->
  ?max_depth:int ->
  ?jobs:int ->
  ?seed:int array ->
  ?shrink:bool ->
  ('s, 'a) subject ->
  (cex, string) result
