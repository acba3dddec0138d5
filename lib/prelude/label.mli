(** Labels for the totally-ordered-broadcast application (Section 6).

    [L = G × N⁺ × P] with selectors [id], [seqno], [origin].  The "label
    order" used by [fullorder] is lexicographic on these three fields. *)

type t = { id : Gid.t; seqno : int; origin : Proc.t }

val make : id:Gid.t -> seqno:int -> origin:Proc.t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [to_buffer buf l] appends the [pp] rendering of [l] to [buf]. *)
val to_buffer : Buffer.t -> t -> unit

module Set : Stdlib.Set.S with type elt = t

module Map : sig
  include Stdlib.Map.S with type key = t

  (** Left-biased union: bindings of the first map win on collision.  Used
      for [content := content ∪ x.con], where a label is bound at most once
      system-wide so the bias never matters on well-formed states. *)
  val union_left : 'a t -> 'a t -> 'a t
end
