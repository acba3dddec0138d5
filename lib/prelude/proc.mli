(** Processor identifiers.

    The paper (Section 2) fixes a universe [P] of processors.  We represent a
    processor by a small non-negative integer; the universe in any given run
    is [{0, ..., n-1}] for some [n]. *)

type t = int

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [to_buffer buf p] appends the [pp] rendering of [p] to [buf] without
    going through a formatter — for [state_key] hot loops. *)
val to_buffer : Buffer.t -> t -> unit

(** Finite sets of processors, used for view membership sets. *)
module Set : sig
  include Stdlib.Set.S with type elt = int

  val pp : Format.formatter -> t -> unit

  (** [to_buffer buf s] appends the [pp] rendering of [s] to [buf] without
      going through a formatter — for [state_key] hot loops. *)
  val to_buffer : Buffer.t -> t -> unit

  (** [universe n] is [{0, ..., n-1}]. Raises [Invalid_argument] if [n < 0]. *)
  val universe : int -> t

  (** [majority_of ~part ~whole] holds iff [|part ∩ whole| > |whole| / 2],
      the majority-intersection test used throughout Section 5. *)
  val majority_of : part:t -> whole:t -> bool

  (** All non-empty subsets of [s]; intended for exhaustive exploration of
      small universes only. *)
  val nonempty_subsets : t -> t list
end

(** Finite maps keyed by processors. *)
module Map : sig
  include Stdlib.Map.S with type key = int

  (** [find_or ~default p m] is [find p m], or [default] when unbound. *)
  val find_or : default:'a -> int -> 'a t -> 'a

  (** [rekey pi m] moves each binding [p ↦ v] to [pi p ↦ v]; [pi] must be
      a permutation. *)
  val rekey : (int -> int) -> 'a t -> 'a t
end
