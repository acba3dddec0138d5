(** Scoped-phase profiler with per-domain accumulators.

    One [t] profiles one run (the parallel explorer, a VS-stack
    execution).  Phase names are interned to dense integer ids; each
    worker charges monotonic-clock wall time to phases through a
    per-slot phase stack — entering a nested phase {e pauses} the
    enclosing one, so attributions are disjoint and the per-phase totals
    sum to at most (slots × wall).  The hot-path operations
    ({!enter}/{!leave}) are one noalloc clock read plus a few stores;
    every instrumented hook takes [?prof] defaulting to [None], so
    unprofiled runs are byte-identical to uninstrumented code.

    Threading contract: slots are caller-assigned, one per worker
    domain; a slot is single-threaded, so the hot path takes no lock.
    {!intern} (guarded by a mutex, but it resizes the per-slot
    accumulator arrays) must only be called while no worker is inside
    {!enter}/{!leave} — in practice, before the run starts.
    {!create}/{!stop}/{!report} belong to the creating domain. *)

type t

(** Monotonic nanoseconds ([bechamel]'s noalloc clock). *)
val now_ns : unit -> int64

(** [create ~slots ()] starts the clock and the creating domain's
    allocation/GC baselines.  [?phases] pre-interns names (ids in list
    order); more can be interned later, before workers start. *)
val create : ?phases:string list -> slots:int -> unit -> t

(** Intern a phase name to its id (idempotent).  Not safe concurrently
    with {!enter}/{!leave} — intern before the workers run. *)
val intern : t -> string -> int

val slots : t -> int
val phases : t -> string list

(** [enter t ~slot phase] pushes [phase] on the slot's stack, pausing
    the enclosing phase; [leave] pops it and resumes the enclosing one.
    Calls must nest properly per slot. *)
val enter : t -> slot:int -> int -> unit

val leave : t -> slot:int -> int -> unit

(** Accrue allocation bytes a worker sampled from its domain-local
    [Gc.allocated_bytes] delta. *)
val add_alloc : t -> slot:int -> float -> unit

(** Freeze the clock and capture the creating domain's allocation and
    GC deltas.  Idempotent; call from the creating domain after the
    profiled run (worker-slot allocation from other domains must be
    accrued via {!add_alloc} — [Gc.allocated_bytes] is domain-local). *)
val stop : t -> unit

(** Wall time so far ([stop]ped: frozen). *)
val wall_ns : t -> int64

type phase_total = { phase : string; ns : int64; calls : int }

type report = {
  wall_ns : int64;
  worker_slots : int;
  totals : phase_total list;  (** phase-interning order *)
  attributed : float;
      (** Σ phase time / (slots × wall) — the fraction of total worker
          wall time the named phases account for *)
  alloc_bytes : float;  (** accrued + creating domain's delta *)
  minor_collections : int;  (** creating domain's quick-stat delta *)
  major_collections : int;
  top_heap_bytes : int;  (** process-wide high-water mark *)
}

val report : t -> report
val pp_report : Format.formatter -> report -> unit
val report_json : report -> Json.t

(** Record the report as gauges under [prefix]: [.wall_ms],
    [.attributed_frac], [.alloc_mb], [.minor_collections],
    [.major_collections], [.phase_ms.<phase>], [.phase_calls.<phase>]. *)
val to_metrics : t -> prefix:string -> Metrics.t -> unit

(** Emit a ["heartbeat"] point on [sink]: states, states/sec,
    bytes/state, wall ms and the per-phase split so far.  Safe to call
    mid-run from any domain (racy reads of other slots' accumulators —
    monitoring-grade numbers, never fed back into the run). *)
val heartbeat : t -> Trace.sink -> component:string -> states:int -> unit
