(** The per-process filter automaton VS-TO-DVS_p — Figure 3 of the paper.

    VS-TO-DVS_p receives views from the underlying VS service and decides
    whether to *attempt* them as dynamic primary views.  It tracks

    - [act]: the latest view it knows to be totally registered, and
    - [amb]: the "ambiguous" views — attempted somewhere, with identifiers
      above [act.id] — which might be the previous primary;

    and admits a new view [v] only after hearing ["info"] messages from every
    other member of [v] and checking that [v] majority-intersects every view
    in [use = {act} ∪ amb].  Registration is propagated with ["registered"]
    messages; once a view is known registered by all its members, it can be
    garbage-collected into [act].

    The [variant] parameter selects deliberately broken mutants used to
    demonstrate that the safety checks in this repository are discriminating
    ({!type-variant}; [test/test_dvs_impl.ml] shows each caught).  The
    engine-level mutants are the [defect-*] entries of
    [Analysis.Registry.defects]. *)

type variant =
  | Faithful  (** the paper's algorithm *)
  | No_majority
      (** admission only checks *non-empty* intersection with [use] — the
          classic dynamic-voting bug the paper warns about *)
  | No_info_wait
      (** admission does not wait for ["info"] messages from other members *)
  | Ignore_amb
      (** admission checks only [act], ignoring ambiguous views *)
  | No_gc
      (** garbage collection disabled — an *ablation*, not a safety mutation:
          the algorithm stays correct but [amb] only shrinks through received
          ["info"] messages, so admission accumulates constraints (E13) *)

val pp_variant : Format.formatter -> variant -> unit

module Make (M : Prelude.Msg_intf.S) : sig
  module W : module type of Wire.Make (M)

  type wire = M.t Wire.t

  type state = {
    me : Prelude.Proc.t;  (** this process's identifier (static) *)
    cur : Prelude.View.t option;  (** latest view from VS; [⊥] initially *)
    client_cur : Prelude.View.t option;  (** latest view attempted to client *)
    act : Prelude.View.t;  (** latest known totally registered view *)
    amb : Prelude.View.Set.t;  (** ambiguous views above [act] *)
    attempted : Prelude.View.Set.t;  (** history: views attempted here *)
    info_rcvd : (Prelude.View.t * Prelude.View.Set.t) Prelude.Pg_map.t;
        (** [info-rcvd[q, g]] — keyed by (sender, view id) *)
    rcvd_rgst : unit Prelude.Pg_map.t;
        (** [rcvd-rgst[q, g] = true] represented by key presence *)
    msgs_to_vs : wire Prelude.Seqs.t Prelude.Gid.Map.t;
    msgs_from_vs : (M.t * Prelude.Proc.t) Prelude.Seqs.t Prelude.Gid.Map.t;
    safe_from_vs : (M.t * Prelude.Proc.t) Prelude.Seqs.t Prelude.Gid.Map.t;
    reg : Prelude.Gid.Set.t;  (** [reg[g]] true iff [g ∈ reg] *)
    info_sent : (Prelude.View.t * Prelude.View.Set.t) Prelude.Gid.Map.t;
        (** [info-sent[g]] — history variable *)
  }

  (** Actions, from process [p]'s own point of view. *)
  type action =
    | Dvs_gpsnd of M.t  (** input: client broadcast *)
    | Dvs_register  (** input: client registration *)
    | Vs_newview of Prelude.View.t  (** input from VS *)
    | Vs_gprcv of Prelude.Proc.t * wire  (** input from VS, sender [q] *)
    | Vs_safe of Prelude.Proc.t * wire  (** input from VS, sender [q] *)
    | Vs_gpsnd of wire  (** output to VS *)
    | Dvs_newview of Prelude.View.t  (** output: attempt a primary view *)
    | Dvs_gprcv of Prelude.Proc.t * M.t  (** output: client delivery *)
    | Dvs_safe of Prelude.Proc.t * M.t  (** output: client safe indication *)
    | Garbage_collect of Prelude.View.t  (** internal *)

  (** [initial ~p0 p]: the Figure 3 initial state of process [p] given
      initial view membership [p0]. *)
  val initial : p0:Prelude.Proc.Set.t -> Prelude.Proc.t -> state

  (** [use s = {act} ∪ amb]. *)
  val use : state -> Prelude.View.Set.t

  val cur_id : state -> Prelude.Gid.Bot.t
  val client_cur_id : state -> Prelude.Gid.Bot.t
  val msgs_to_vs_of : state -> Prelude.Gid.t -> wire Prelude.Seqs.t
  val msgs_from_vs_of : state -> Prelude.Gid.t -> (M.t * Prelude.Proc.t) Prelude.Seqs.t
  val safe_from_vs_of : state -> Prelude.Gid.t -> (M.t * Prelude.Proc.t) Prelude.Seqs.t
  val reg_of : state -> Prelude.Gid.t -> bool

  (** Admission test of [dvs-newview] under a given variant (exposed for the
      membership baselines and the benchmarks). *)
  val admits : variant -> state -> Prelude.View.t -> bool

  val enabled_v : variant -> state -> action -> bool
  val step_v : variant -> state -> action -> state
  val is_external : action -> bool
  val equal_state : state -> state -> bool

  (** Canonical full-state rendering (all fields, history variables
      included), injective whenever [M.pp] is injective on the alphabet in
      use — a dedup-key component for exhaustive exploration. *)
  val state_key : state -> string

  (** [key_to_buffer buf s] appends [state_key s] to [buf]. *)
  val key_to_buffer : Buffer.t -> state -> unit

  (** Flat canonical codec derived from the state's one description
      (DESIGN.md §13): injective up to [equal_state] whenever the
      client-message codec is injective up to [M.equal]. *)
  val codec_state : M.t Check.Codec.f -> state Check.Codec.f

  val pp_state : Format.formatter -> state -> unit
  val pp_action : Format.formatter -> action -> unit

  (** The faithful automaton packaged for the IOA toolkit. *)
  val automaton :
    variant ->
    (module Ioa.Automaton.S with type state = state and type action = action)
end
