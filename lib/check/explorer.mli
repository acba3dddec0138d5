(** Bounded-exhaustive state-space exploration.

    For small instances (2–3 processes, a couple of views, one or two
    payloads) the automata of this repository have small enough reachable
    state spaces to enumerate outright.  The explorer performs a BFS from
    the initial state, deduplicating states by a 128-bit {!Fingerprint} of
    a caller-provided canonical identity — the flat {!Codec} image when
    [?codec] is given, the rendered [?key] string otherwise — checking the
    given invariants at every reachable state, and optionally checking a
    per-step property (used for exhaustive refinement checking).

    Two engines run the search; [run] picks one from its arguments:

    {ul
    {- the {b sequential} engine, when [jobs = 1] or [max_depth] is set:
       a single-domain FIFO BFS.  States are admitted at their true BFS
       depth, so a depth cut is exact, and every count is reproducible.}
    {- the {b barrier-free sharded} engine, on every other run: the
       128-bit fingerprint space is range-partitioned across [jobs]
       domains ({!Fingerprint.shard}); each domain exclusively owns its
       seen-set shard and private frontier — no locks on the hot path —
       and successors owned elsewhere hand off through bounded lock-free
       MPSC rings ({!Ring}) in batches.  Termination is detected by
       distributed quiescence (an atomic in-flight credit counter).  Both
       modes run here: under [`Deterministic] each shard keeps the
       sequential engine's table of representatives, and the [check_key]
       audit and the [trace] parent record run on the shard's owner.  On
       a clean exhaustive run the visited set, counts and verdict are
       identical to the sequential engine's; the reported [depth] is a
       {i discovery} depth (≥ the true BFS eccentricity, and
       scheduling-dependent), and truncated runs keep exact state counts
       but a scheduling-dependent prefix.}}

    [jobs > 1] forces the {b per-state RNG} discipline, whichever engine
    runs — the RNG handed to [candidates] is seeded from a fingerprint of
    the state, so the candidate set at a state is a pure function of
    (run seed, state) and the explored state graph is independent of
    visit order and interleaving.  The seed fingerprint is the [key]'s
    whenever a key is given, and the dedup fingerprint otherwise (see
    [?key] and [?codec] on {!run}).  [jobs:1] without [state_rng]
    reproduces the classic sequential stream-RNG search exactly.

    Unlike the random engine, candidates must over-approximate the enabled
    action set relative to the chosen finite environment.  Under [jobs > 1]
    the automaton's [candidates]/[enabled]/[step] and the [key], invariant
    and [check_step] functions are called concurrently from several domains
    and must be thread-safe (pure functions of their arguments — true of
    the [generative_pure] constructors; the [observe] callback and [sink]
    are serialized by the explorer and need not be). *)

type stats = {
  states : int;  (** distinct states visited *)
  transitions : int;  (** transitions traversed *)
  depth : int;  (** BFS depth reached *)
  truncated : bool;  (** whether the [max_states] bound stopped the search *)
}

val pp_stats : Format.formatter -> stats -> unit

(** What the explorer saw when it expanded one state: the raw candidate
    proposals and the enabled subset it actually fired.  The analysis passes
    of [lib/analysis] consume this to measure generator soundness, action
    coverage and quiescence; states cut off by [max_depth] or [max_states]
    are not expanded and hence not observed. *)
type ('s, 'a) observation = {
  obs_state : 's;
  obs_depth : int;
  obs_candidates : 'a list;  (** as proposed by [candidates] *)
  obs_enabled : 'a list;  (** the [enabled]-filtered subset, as fired *)
}

(** Predecessor record kept when the search runs with [~trace:true]: for
    every admitted state (except the initial one), the fingerprint of the
    state it was first reached from and the index of the firing action in
    the predecessor's enabled-candidate list.  {!Cex.reconstruct} walks this
    table back to [trace_init] and re-executes the path.  The index is a
    hint, exact under the per-state RNG discipline ([state_rng] or
    [jobs > 1]); reconstruction falls back to a fingerprint-guided search
    over candidate draws when it does not land on the recorded successor. *)
type trace = {
  trace_parents : (Fingerprint.t * int) Fingerprint.Table.t;
  trace_init : Fingerprint.t;
}

type ('s, 'a) outcome = {
  stats : stats;
  violation : 's Ioa.Invariant.violation option;
      (** first invariant violation found, if any *)
  violation_step : ('s, 'a) Ioa.Exec.step option;
      (** the transition that produced the violating state — [None] only
          when the initial state itself violates *)
  step_failure : (('s, 'a) Ioa.Exec.step * string) option;
      (** first per-step property failure, if any *)
  key_clash : ('s * 's) option;
      (** two states the dedup conflated that [check_key] distinguishes —
          either the dedup identity (the codec, or the key without one) is
          not injective or two images share a fingerprint; in both cases
          the exploration is unsound *)
  trace : trace option;  (** present iff the run was started with [~trace:true] *)
  por_skipped : int;
      (** enabled actions the [ample] filter declined to fire; 0 without
          [?ample] *)
  orbit_collapsed : int;
      (** successor states [canon] rewrote to a different (physically
          non-identical) orbit representative; 0 without [?canon] *)
}

(** [run (module A) ~codec ~invariants ~init ()] explores breadth-first.
    At least one of [?key] and [?codec] must be given
    ([Invalid_argument] otherwise); they split two jobs between them:

    {ul
    {- {b dedup}: states are identified by the fingerprint of the codec
       image when [?codec] is given, of the key string otherwise;}
    {- {b RNG seed} (under [state_rng]): the per-state RNG is seeded from
       the key's fingerprint when [?key] is given, and from the dedup
       fingerprint otherwise.}}

    So a key-only run renders the key once per admitted successor and
    seeds from that same fingerprint; a codec-only run never renders a
    key; a run with both dedups on the codec and renders the key once
    per {i expanded} state, only to seed its RNG — it explores exactly
    the graph of the key-only run (the codec must induce the key's
    equivalence classes, which [test/test_codec.ml] checks per registry
    entry) at a fraction of the rendering cost.  Entries whose generators
    draw from the per-state RNG explore a different — equally valid —
    graph when seeded from the codec fingerprint instead of the key's.

    @param key canonical state rendering (via its 128-bit fingerprint;
           the key string itself is not retained): the dedup identity
           without [?codec], the RNG seed source whenever given.
    @param seed RNG seed for the generative module (default [[|0|]]).
    @param max_states stop after visiting this many distinct states
           (default 200_000).  The state that crosses the bound is still
           invariant-checked before the search stops.  The final count is
           deterministic ([max_states + 1]) at every job count, but on
           the sharded engine {i which} states the cut admits — and so the
           transition count and the findings — is scheduling-dependent.
           Bound runs that must be reproducible state-for-state by
           [max_depth] instead.
    @param max_depth stop expanding beyond this depth (default unbounded).
           A depth bound runs the sequential engine whatever [jobs] says,
           since only it admits states at their true BFS depth — the
           sharded engine knows discovery depths only and cannot cut a BFS
           level exactly.  The cut is therefore exact and the result the
           same at every job count.
    @param jobs worker domains (default 1 = the sequential engine).
           [jobs > 1] implies [state_rng], and without [max_depth] selects
           the sharded engine.
    @param state_rng seed the RNG handed to [candidates] from each state's
           fingerprint instead of one shared stream (default: only when
           [jobs > 1]).  Makes candidate sets visit-order-independent, so
           results agree across job counts; [lib/analysis] forces this on
           at every job count.
    @param trace retain per-state predecessors (fingerprint + enabled-action
           index) for counterexample path reconstruction (default false).
           Costs ~24 bytes per state.  On the sharded engine each worker
           keeps its own shard's slice, merged into one table on
           completion.
    @param check_step optional per-transition property; return [Error msg]
           to report.  Exploration stops at the first failure.
    @param check_key optional state equality used to audit the dedup: a
           representative state is retained per fingerprint and compared on
           every collision (on the sharded engine, by the worker owning
           the fingerprint); the first conflated pair is reported as
           [key_clash] and stops the search.  Costs memory proportional to
           the explored set — intended for the small instances of
           [lib/analysis].
    @param ample partial-order reduction filter, called per expanded state
           with the full enabled list ({i after} [observe], which always
           sees the unreduced list).  Return [Some subset] to fire only
           those actions — the caller must guarantee the subset is a valid
           ample set (see [Analysis.Footprint]); return [None] when the
           static facts are inconclusive at this state, which expands
           fully.  Skipped actions are counted in [por_skipped] and, when
           [?metrics] is given, the [explorer.por_skipped] counter.
           Omitting the parameter leaves the explored graph byte-identical
           to previous releases.
    @param codec flat state codec ({!Codec}): the dedup identity when
           given — fingerprints are computed from the state's canonical
           byte image instead of the rendered [key] string, so no
           per-successor string build (the E15/E17 bottleneck).  Dedup
           classes are unchanged wherever the codec is injective up to the
           same equality as [key] (the registry codecs are;
           [test/test_codec.ml] checks it differentially).  Without [?key]
           the dedup fingerprint also seeds the per-state RNG.
    @param mode [`Deterministic] (default) keeps a seen-table of
           representatives, on either engine.  [`Throughput] switches to
           hash compaction: each seen-set stores bare 128-bit fingerprints
           in flat lane arrays (16 bytes/state, no retained
           representatives), trading the [check_key] audit and [trace]
           reconstruction — both rejected with [Invalid_argument] — for
           footprint.  The mode does not choose the engine ([jobs] and
           [max_depth] do).  Visited-state counts and verdicts match
           deterministic mode on every clean exhaustive run.
    @param canon orbit canonicalization: applied to the initial state and
           to every successor before fingerprinting, so exploration runs
           over orbit representatives (symmetry reduction).  Must be
           idempotent and return its argument {i physically} when the
           argument already is the representative — the explorer counts a
           collapse ([orbit_collapsed], metric [explorer.orbit_collapsed])
           whenever the result is physically distinct.  Composes with
           [?ample]; incompatible in spirit with [~trace:true]
           reconstruction, which re-executes raw (uncanonicalized)
           successors.
    @param observe called once per expanded state with the candidate set
           and its enabled subset, before the transitions fire.  Serialized
           on the sharded engine (calls arrive in scheduling order).
    @param sink trace sink for progress: a ["progress"] point (states
           visited, transitions, frontier size, depth) every
           [progress_every] expanded states and a final ["done"] point
           carrying the truncation flag — enough to compute states/sec
           while the search crunches.  Component ["check.explorer"].
    @param metrics on completion, bumps the [explorer.states] /
           [explorer.transitions] / [explorer.truncated] counters and the
           [explorer.depth] and [explorer.workers] gauges (the domains
           that ran: 1 on the sequential engine).  The sequential engine
           samples the [explorer.frontier] histogram (queue length) at
           each progress stride.  The sharded engine reports
           [explorer.handoff_batches] (ring pushes) and
           [explorer.ring_full_stalls] (pushes that found the destination
           ring full, retried after a self-drain), plus the
           [explorer.ring_occupancy] histogram (destination occupancy
           sampled at each push).  With [?prof] also given, both engines
           record the [explorer.expand_latency_us] (per-state expansion
           latency) histogram.
    @param prof scoped-phase profiler (see {!profile}): charges wall time
           to the [expand] / [encode] / [fingerprint] / [dedup] phases,
           plus [route] / [flush] / [idle] on the sharded engine, one slot
           per worker, and accrues per-domain allocation.  Must have at
           least [jobs] slots
           ([Invalid_argument] otherwise).  When [?sink] is also given,
           each progress point is followed by an [Obs.Prof.heartbeat]
           (states/sec, bytes/state, per-phase split so far).  Omitting
           the parameter leaves the search byte-identical to unprofiled
           runs — the hooks compile to nothing.
    @param progress_every progress-event stride (default 10_000). *)
val run :
  (module Ioa.Automaton.GENERATIVE with type state = 's and type action = 'a) ->
  ?key:('s -> string) ->
  invariants:'s Ioa.Invariant.t list ->
  ?seed:int array ->
  ?max_states:int ->
  ?max_depth:int ->
  ?jobs:int ->
  ?state_rng:bool ->
  ?trace:bool ->
  ?check_step:(('s, 'a) Ioa.Exec.step -> (unit, string) result) ->
  ?check_key:('s -> 's -> bool) ->
  ?ample:('s -> 'a list -> 'a list option) ->
  ?canon:('s -> 's) ->
  ?codec:'s Codec.t ->
  ?mode:[ `Deterministic | `Throughput ] ->
  ?observe:(('s, 'a) observation -> unit) ->
  ?sink:Obs.Trace.sink ->
  ?metrics:Obs.Metrics.t ->
  ?prof:Obs.Prof.t ->
  ?progress_every:int ->
  init:'s ->
  unit ->
  ('s, 'a) outcome

(** A profiler pre-interned with the explorer's phase names ([expand],
    [encode], [fingerprint], [dedup], [route], [flush], [idle]) and one
    slot per worker — the [?prof] argument for [run ~jobs].  [encode]
    accrues only on the [?codec] path (flat serialization), so an
    E17-style string-path profile attributes the same work to
    [fingerprint]; a run with both [?codec] and [?key] charges its
    per-expansion RNG-seed key render to [fingerprint] too, pausing the
    enclosing [expand]; [route]/[flush]/[idle] accrue only on the sharded
    engine. *)
val profile : jobs:int -> Obs.Prof.t
