(** VS-IMPL: the composed VS engine — one {!Engine} per process, the
    {!Daemon} membership oracle and the {!Net} transport — with exactly the
    VS interface as its external actions ([vs-gpsnd], [vs-newview],
    [vs-gprcv], [vs-safe]).  {!Stack_refinement} proves (per execution, via
    the mechanized checker) that it implements the Figure 1 specification.

    Connectivity changes ([Reconfigure]) and view decisions ([Createview])
    are internal: like the specification's own [vs-createview], they resolve
    nondeterminism rather than interact with clients.

    Under a faulty {!Fault.policy} the composition also exposes the
    transport's adversarial mutations ([Drop] / [Duplicate] / [Reorder])
    and the engines' [Retransmit] offers as internal actions.  With the
    default {!Fault.none} policy none of these is ever enabled or proposed
    and the generated executions are byte-for-byte those of the lossless
    stack. *)

module Make (M : Prelude.Msg_intf.S) : sig
  module E : module type of Engine.Make (M)
  module N : module type of Net.Make (M)

  type packet = M.t Packet.t

  type state = {
    net : N.state;
    daemon : Daemon.t;
    engines : E.state Prelude.Proc.Map.t;
    p0 : Prelude.Proc.Set.t;  (** static: the initial membership *)
  }

  type action =
    | Gpsnd of Prelude.Proc.t * M.t  (** external input *)
    | Newview of Prelude.View.t * Prelude.Proc.t  (** external output *)
    | Gprcv of { src : Prelude.Proc.t; dst : Prelude.Proc.t; msg : M.t }
        (** external output at [dst] *)
    | Safe of { src : Prelude.Proc.t; dst : Prelude.Proc.t; msg : M.t }
        (** external output at [dst] *)
    | Createview of Prelude.View.t  (** internal: daemon decision *)
    | Reconfigure of Prelude.Proc.Set.t list  (** internal: connectivity *)
    | Send of { src : Prelude.Proc.t; dst : Prelude.Proc.t; pkt : packet }
        (** internal: engine → net *)
    | Deliver of { src : Prelude.Proc.t; dst : Prelude.Proc.t; pkt : packet }
        (** internal: net → engine *)
    | Drop of { src : Prelude.Proc.t; dst : Prelude.Proc.t }
        (** internal fault: lose the channel head *)
    | Duplicate of { src : Prelude.Proc.t; dst : Prelude.Proc.t }
        (** internal fault: re-enqueue a copy of the channel head *)
    | Reorder of { src : Prelude.Proc.t; dst : Prelude.Proc.t }
        (** internal fault: rotate the channel head to the tail *)
    | Retransmit of { src : Prelude.Proc.t; dst : Prelude.Proc.t; pkt : packet }
        (** internal: engine re-send of possibly-lost traffic; pure net
            effect (the original [Send]'s bookkeeping already happened) *)

  (** [?faults] installs an adversarial transport policy (default
      {!Fault.none}); [?variant] selects a seeded-defect engine (default
      [Faithful]); [?drop_stale] makes engines discard superseded-view
      packets (default: on exactly when the policy is faulty). *)
  val initial :
    ?faults:Fault.policy ->
    ?variant:E.variant ->
    ?drop_stale:bool ->
    universe:int ->
    p0:Prelude.Proc.Set.t ->
    unit ->
    state

  (** Install a (new) fault policy mid-execution, resetting the consumed
      budgets — used between soak segments. *)
  val set_faults : state -> Fault.policy -> state

  val engine : state -> Prelude.Proc.t -> E.state

  (** The {!Ioa.Automaton.S} surface, except that [step] takes an optional
      metrics registry and trace sink.  [?metrics] only bumps counters in
      the Net / Engine / Daemon layers ([net.sent], [engine.deliveries],
      [daemon.notifications], …); [?sink] only forwards to the engines'
      trace hooks (["sequenced"] / ["deliver"] / ["safe"] points on
      component ["vs.engine"] — the stream {!Obs.Monitor}'s built-in rules
      check online).  The returned state is identical with or without
      them, and total application [step s a] erases the optionals, so
      [step] still matches [Ioa.Automaton.S] wherever the module is used
      unchanged. *)

  (** The fields, described once (DESIGN.md §13); [equal_state],
      [codec_state] and [permute] are derived from it. *)
  val record : (M.t, state) Check.Record.t

  val equal_state : state -> state -> bool
  val pp_state : Format.formatter -> state -> unit
  val pp_action : Format.formatter -> action -> unit
  val enabled : state -> action -> bool

  val step :
    ?metrics:Obs.Metrics.t -> ?sink:Obs.Trace.sink -> state -> action -> state

  val is_external : action -> bool

  (** Canonical full-state rendering — net, daemon and every engine — used
      as the dedup key for exhaustive exploration. *)
  val state_key : state -> string

  (** [key_to_buffer buf s] appends [state_key s] to [buf]. *)
  val key_to_buffer : Buffer.t -> state -> unit

  (** Flat canonical codec — net, daemon, every engine and the initial
      membership — given a payload codec.  The net, daemon and engine
      codecs are {!Check.Codec.memo}-wrapped. *)
  val codec_state : M.t Check.Codec.f -> state Check.Codec.f

  (** {2 Symmetry transport}

      Apply a processor permutation to a whole composed state / to an
      action.  The stack is {e not} equivariant — the engine elects the
      least view member as sequencer — so these only give the symmetry
      audit the transport it needs to exhibit and localize the broken
      component; they are not used for reduction on stack entries. *)

  val permute : (Prelude.Proc.t -> Prelude.Proc.t) -> state -> state
  val permute_action : (Prelude.Proc.t -> Prelude.Proc.t) -> action -> action

  (** {2 Generation} *)

  type config = {
    universe : int;
    p0 : Prelude.Proc.Set.t;
    payloads : M.t list;
    max_views : int;
    max_sends : int;
  }

  val default_config : payloads:M.t list -> universe:int -> config

  (** [?metrics] / [?sink] / [?prof] are captured by the packaged [step];
      generation itself is unobserved, so replayability is unaffected.
      [?prof] charges each transition's wall time to a phase on slot 0
      (generative runs are single-threaded): ["send"] for network sends,
      ["retransmit"] for re-sends, ["deliver"] for packet receipt and the
      client-side gprcv/safe indications; phase names are interned at
      construction, so pass the profiler before its workers (if any)
      start. *)
  val generative :
    ?metrics:Obs.Metrics.t ->
    ?sink:Obs.Trace.sink ->
    ?prof:Obs.Prof.t ->
    config ->
    rng_views:Random.State.t ->
    (module Ioa.Automaton.GENERATIVE with type state = state and type action = action)

  (** Like {!generative}, but all auxiliary randomness (reconfiguration and
      view-creation gating, partition proposals, fault-probability draws) is
      drawn from the per-call RNG instead of a captured [rng_views] stream —
      [candidates] becomes a pure function of (rng, state), thread-safe and
      interleaving-independent under per-state RNG exploration.  Takes no
      [?metrics]: a registry captured by [step] would be mutated
      concurrently under parallel exploration. *)
  val generative_pure :
    config ->
    (module Ioa.Automaton.GENERATIVE with type state = state and type action = action)
end
