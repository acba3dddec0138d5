(** The totally-ordered-broadcast service specification TO (Section 6,
    following the PODC'97 specification of Fekete, Lynch, Shvartsman).

    TO is *not* group-oriented: clients see only [bcast]/[brcv].  The service
    accepts messages from clients and delivers them to all clients according
    to one system-wide total order; each client receives a gap-free prefix of
    that order. *)

type payload = string

type state = {
  pending : payload Prelude.Seqs.t Prelude.Proc.Map.t;
      (** submitted, not yet placed in the total order; per origin *)
  order : (payload * Prelude.Proc.t) Prelude.Seqs.t;
      (** the system-wide total order *)
  next : int Prelude.Proc.Map.t;  (** per-destination report pointer, init 1 *)
}

type action =
  | Bcast of Prelude.Proc.t * payload  (** input: client broadcast *)
  | Order of payload * Prelude.Proc.t  (** internal: place in the order *)
  | Brcv of {
      origin : Prelude.Proc.t;
      dst : Prelude.Proc.t;
      payload : payload;
    }  (** output: delivery at [dst] *)

val initial : state

include Ioa.Automaton.S with type state := state and type action := action

val pending_of : state -> Prelude.Proc.t -> payload Prelude.Seqs.t
val next_of : state -> Prelude.Proc.t -> int

(** Canonical full-state rendering, used as the dedup key for exhaustive
    exploration. *)
val state_key : state -> string

(** The state's one description (DESIGN.md §13), in codec field order;
    the footprint families are [pending], [order] and [next]. *)
val record : (unit, state) Check.Record.t

(** Flat canonical codec derived from {!record}, injective up to
    [equal_state]. *)
val codec_state : state Check.Codec.f

(** Symmetry transport: apply a processor permutation to a state / an
    action.  The specification is equivariant (audited by
    [Analysis.Symmetry]), so these feed orbit canonicalization. *)

val permute : (Prelude.Proc.t -> Prelude.Proc.t) -> state -> state
val permute_action : (Prelude.Proc.t -> Prelude.Proc.t) -> action -> action

(** Safety facts of the TO service, used as oracle checks. *)

(** Every report pointer stays within the order. *)
val invariant_next_bounded : state Ioa.Invariant.t
