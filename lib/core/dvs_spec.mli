(** The DVS specification automaton — Figure 2 of the paper, the paper's
    primary contribution.

    DVS is a *dynamic primary* view-oriented group communication service.
    It differs from VS (Figure 1) in three ways:

    - clients signal with [dvs-register] when they have finished the
      application-level state exchange for their current view; the service
      records this in [registered[g]];
    - [attempted[g]] records to which processes a view has been reported
      (used by the proofs, and by our mechanized checks);
    - [dvs-createview] only creates views that intersect every
      previously-created view not separated from them by a *totally
      registered* view — the dynamic-primary admission rule.

    The key safety property is Invariant 4.1: any two created views with no
    totally-registered view between them intersect.  See
    {!Dvs_invariants}. *)

module Make (M : Prelude.Msg_intf.S) : sig
  type state = {
    created : Prelude.View.Set.t;
    current_viewid : Prelude.Gid.Bot.t Prelude.Proc.Map.t;
    queue : (M.t * Prelude.Proc.t) Prelude.Seqs.t Prelude.Gid.Map.t;
    attempted : Prelude.Proc.Set.t Prelude.Gid.Map.t;
        (** [attempted[g]]: members to which [g] has been reported *)
    registered : Prelude.Proc.Set.t Prelude.Gid.Map.t;
        (** [registered[g]]: members that performed [dvs-register] in [g] *)
    pending : M.t Prelude.Seqs.t Prelude.Pg_map.t;
    next : int Prelude.Pg_map.t;
    next_safe : int Prelude.Pg_map.t;
  }

  type action =
    | Createview of Prelude.View.t  (** internal *)
    | Newview of Prelude.View.t * Prelude.Proc.t  (** output at [p] *)
    | Register of Prelude.Proc.t  (** input from [p] *)
    | Gpsnd of Prelude.Proc.t * M.t  (** input from [p] *)
    | Order of M.t * Prelude.Proc.t * Prelude.Gid.t  (** internal *)
    | Gprcv of {
        src : Prelude.Proc.t;
        dst : Prelude.Proc.t;
        msg : M.t;
        gid : Prelude.Gid.t;
      }  (** output at [dst] *)
    | Safe of {
        src : Prelude.Proc.t;
        dst : Prelude.Proc.t;
        msg : M.t;
        gid : Prelude.Gid.t;
      }  (** output at [dst] *)

  val initial : Prelude.Proc.Set.t -> state

  include Ioa.Automaton.S with type state := state and type action := action

  (** A canonical rendering of the entire state, injective whenever [M.pp]
      is injective on the alphabet in use: the RNG seed of key-seeded
      exploration and the identity of counterexample search. *)
  val state_key : state -> string

  (** [key_to_buffer buf s] appends [state_key s] to [buf]. *)
  val key_to_buffer : Buffer.t -> state -> unit

  (** Flat canonical codec derived from the state's one description
      (DESIGN.md §13): injective up to [equal_state] whenever the message
      codec is injective up to [M.equal]. *)
  val codec_state : M.t Check.Codec.f -> state Check.Codec.f

  (** Total lookups with the Figure 2 "init" defaults. *)

  val current_viewid_of : state -> Prelude.Proc.t -> Prelude.Gid.Bot.t
  val queue_of : state -> Prelude.Gid.t -> (M.t * Prelude.Proc.t) Prelude.Seqs.t
  val attempted_of : state -> Prelude.Gid.t -> Prelude.Proc.Set.t
  val registered_of : state -> Prelude.Gid.t -> Prelude.Proc.Set.t
  val pending_of : state -> Prelude.Proc.t -> Prelude.Gid.t -> M.t Prelude.Seqs.t
  val next_of : state -> Prelude.Proc.t -> Prelude.Gid.t -> int
  val next_safe_of : state -> Prelude.Proc.t -> Prelude.Gid.t -> int
  val created_view : state -> Prelude.Gid.t -> Prelude.View.t option

  (** Derived view classes of Figure 2. *)

  (** [Att]: created views attempted at some member. *)
  val att : state -> Prelude.View.Set.t

  (** [TotAtt]: created views attempted at every member. *)
  val tot_att : state -> Prelude.View.Set.t

  (** [Reg]: created views registered at some member. *)
  val reg : state -> Prelude.View.Set.t

  (** [TotReg]: created views registered at every member. *)
  val tot_reg : state -> Prelude.View.Set.t

  (** Whether some totally-registered view's identifier lies strictly
      between [a] and [b] (in either order) — the separation clause of the
      [dvs-createview] precondition and of Invariant 4.1. *)
  val tot_reg_between : state -> Prelude.Gid.t -> Prelude.Gid.t -> bool
end
