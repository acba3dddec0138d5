(** View identifiers.

    The paper (Section 2) posits a totally ordered set [G] of view identifiers
    with a distinguished least element [g0].  We use non-negative integers;
    [g0 = 0].  Identifiers are only compared, never computed with, so the
    representation is kept abstract enough to swap out. *)

type t = int

(** The distinguished least identifier [g0] of the initial view [v0]. *)
val g0 : t

val compare : t -> t -> int
val equal : t -> t -> bool
val lt : t -> t -> bool
val le : t -> t -> bool
val gt : t -> t -> bool
val ge : t -> t -> bool

(** [succ g] is a fresh identifier strictly greater than [g]. *)
val succ : t -> t

(** [max a b] under the total order. *)
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [to_buffer buf g] appends the [pp] rendering of [g] to [buf]. *)
val to_buffer : Buffer.t -> t -> unit

module Map : Stdlib.Map.S with type key = int
module Set : Stdlib.Set.S with type elt = int

(** Identifiers extended with a bottom element, for per-process
    [current-viewid] variables that start undefined at non-members of the
    initial view ([G_⊥] in the paper). *)
module Bot : sig
  type gid := t
  type t = gid option

  (** [⊥]: less than every identifier. *)
  val bot : t

  val of_gid : gid -> t
  val equal : t -> t -> bool

  (** [lt_gid b g] holds iff [b = ⊥] or the carried identifier is [< g]. *)
  val lt_gid : t -> gid -> bool

  val pp : Format.formatter -> t -> unit
  val to_buffer : Buffer.t -> t -> unit
end
