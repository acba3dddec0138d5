(** The VS specification automaton — Figure 1 of the paper.

    VS is a *static* view-oriented group communication service: an arbitrary
    view-creation facility (views created in identifier order, with arbitrary
    non-empty membership), per-process view notification in identifier order,
    and per-view totally-ordered, gap-free, prefix-consistent message delivery
    with safe (all-members-received) indications.

    The automaton is parametric in the message alphabet [M]; inside DVS-IMPL
    it is instantiated with the wire alphabet [M = M_c ∪ info ∪ registered]
    (see {!Wire} in [lib/dvs_impl]). *)

module Make (M : Prelude.Msg_intf.S) : sig
  type state = {
    created : Prelude.View.Set.t;  (** views created so far; init [{v0}] *)
    current_viewid : Prelude.Gid.Bot.t Prelude.Proc.Map.t;
        (** [current-viewid[p]]; [⊥] for processes outside the initial view *)
    queue : (M.t * Prelude.Proc.t) Prelude.Seqs.t Prelude.Gid.Map.t;
        (** [queue[g]]: the per-view total order of messages *)
    pending : M.t Prelude.Seqs.t Prelude.Pg_map.t;
        (** [pending[p, g]]: sent but not yet ordered *)
    next : int Prelude.Pg_map.t;  (** [next[p, g]], init 1 *)
    next_safe : int Prelude.Pg_map.t;  (** [next-safe[p, g]], init 1 *)
  }

  type action =
    | Createview of Prelude.View.t  (** internal *)
    | Newview of Prelude.View.t * Prelude.Proc.t  (** output at [p] *)
    | Gpsnd of Prelude.Proc.t * M.t  (** input from [p] *)
    | Order of M.t * Prelude.Proc.t * Prelude.Gid.t  (** internal *)
    | Gprcv of {
        src : Prelude.Proc.t;
        dst : Prelude.Proc.t;
        msg : M.t;
        gid : Prelude.Gid.t;  (** the "choose g" parameter *)
      }  (** output at [dst] *)
    | Safe of {
        src : Prelude.Proc.t;
        dst : Prelude.Proc.t;
        msg : M.t;
        gid : Prelude.Gid.t;
      }  (** output at [dst] *)

  (** [initial p0] is the unique initial state with initial view [⟨g0, p0⟩]. *)
  val initial : Prelude.Proc.Set.t -> state

  include Ioa.Automaton.S with type state := state and type action := action

  (** A canonical rendering of the entire state, injective whenever [M.pp]
      is injective on the alphabet in use: the RNG seed of key-seeded
      exploration and the identity of counterexample search. *)
  val state_key : state -> string

  (** [key_to_buffer buf s] appends [state_key s] to [buf]. *)
  val key_to_buffer : Buffer.t -> state -> unit

  (** The state's one description (DESIGN.md §13), in codec field order;
      the footprint families are [created], [viewids], [queue],
      [pending], [next] and [next_safe]. *)
  val record : (M.t, state) Check.Record.t

  (** Flat canonical codec derived from {!record}: injective up to
      [equal_state] whenever the message codec is injective up to
      [M.equal].  Feeds {!Check.Codec.make} for the explorer's flat
      fingerprint path. *)
  val codec_state : M.t Check.Codec.f -> state Check.Codec.f

  (** Symmetry transport: apply a processor permutation to a state / an
      action.  The specification is equivariant (audited by
      [Analysis.Symmetry]), so these feed orbit canonicalization. *)

  val permute : (Prelude.Proc.t -> Prelude.Proc.t) -> state -> state
  val permute_action : (Prelude.Proc.t -> Prelude.Proc.t) -> action -> action

  (** Total lookups mirroring the paper's array conventions. *)

  val current_viewid_of : state -> Prelude.Proc.t -> Prelude.Gid.Bot.t

  val queue_of : state -> Prelude.Gid.t -> (M.t * Prelude.Proc.t) Prelude.Seqs.t

  val pending_of : state -> Prelude.Proc.t -> Prelude.Gid.t -> M.t Prelude.Seqs.t

  val next_of : state -> Prelude.Proc.t -> Prelude.Gid.t -> int

  val next_safe_of : state -> Prelude.Proc.t -> Prelude.Gid.t -> int

  (** The member of [created] with identifier [g], if any (unique by
      Invariant 3.1). *)
  val created_view : state -> Prelude.Gid.t -> Prelude.View.t option

  (** Invariant 3.1: views in [created] have distinct identifiers. *)
  val invariant_3_1 : state Ioa.Invariant.t

  (** Gap-freedom / prefix sanity: [next] and [next-safe] indices never run
      past [queue[g]] + 1, and [next-safe ≤ next] for every process that is in
      the view.  These are consequences of the code that make good machine
      checks. *)
  val invariant_indices : state Ioa.Invariant.t

  (** The invariants above paired with antecedent coverage predicates for
      the analyzer's vacuity check (see {!Ioa.Invariant.checked}). *)
  val checked_invariants : state Ioa.Invariant.checked list
end
