(** Views.

    A view [v = ⟨g, P⟩] pairs a view identifier with a non-empty membership
    set (Section 2).  [v0 = ⟨g0, P0⟩] is the distinguished initial view. *)

type t = private { id : Gid.t; set : Proc.Set.t }

(** [make ~id ~set] builds a view.  Raises [Invalid_argument] when [set] is
    empty: the paper requires non-empty membership sets. *)
val make : id:Gid.t -> set:Proc.Set.t -> t

(** The distinguished initial view [v0 = ⟨g0, P0⟩] over the given initial
    membership. *)
val initial : Proc.Set.t -> t

val id : t -> Gid.t
val set : t -> Proc.Set.t
val mem : Proc.t -> t -> bool
val cardinal : t -> int

val compare : t -> t -> int
val equal : t -> t -> bool

(** [intersects v w] iff [v.set ∩ w.set ≠ ∅]. *)
val intersects : t -> t -> bool

(** [majority_intersects v ~of_:w] iff [|v.set ∩ w.set| > |w.set| / 2] — the
    local admission test of VS-TO-DVS (Figure 3). *)
val majority_intersects : t -> of_:t -> bool

(** [permute pi v] applies a processor permutation to the membership set,
    keeping the identifier — used by the symmetry analysis. *)
val permute : (Proc.t -> Proc.t) -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [to_buffer buf v] appends the [pp] rendering of [v] to [buf]. *)
val to_buffer : Buffer.t -> t -> unit

module Set : sig
  include Stdlib.Set.S with type elt = t

  val pp : Format.formatter -> t -> unit
  val to_buffer : Buffer.t -> t -> unit

  (** Members with identifier strictly greater than [g]. *)
  val above : Gid.t -> t -> t

  (** The member with the largest identifier, if any. *)
  val max_id : t -> elt option
end
