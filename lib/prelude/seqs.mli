(** Finite sequences, used as queues, following the paper's Section 2.

    A sequence supports the paper's operations: [head], [append], [remove]
    (of the head), indexing [a(i)] (1-based, as in the paper), subsequence
    [a(i..j)], concatenation [a + b], prefix ordering [a ≤ b], consistency of
    a collection, and [lub].  The representation gives O(log n) append,
    head-removal and indexing, so specification queues stay cheap even in
    long executions. *)

type 'a t

(** The empty sequence [λ]. *)
val empty : 'a t

val is_empty : 'a t -> bool

(** [length a] is [|a|]. *)
val length : 'a t -> int

(** [nth1 a i] is the paper's [a(i)] with 1-based [i].
    Raises [Invalid_argument] if [i < 1] or [i > length a]. *)
val nth1 : 'a t -> int -> 'a

(** [nth1_opt a i] is [Some (a(i))], or [None] out of range. *)
val nth1_opt : 'a t -> int -> 'a option

(** [head a] is [a(1)].  Raises [Invalid_argument] on the empty sequence. *)
val head : 'a t -> 'a

val head_opt : 'a t -> 'a option

(** [append a x] is [a + x] (enqueue at the tail). *)
val append : 'a t -> 'a -> 'a t

(** [remove_head a] deletes [a(1)].  Raises [Invalid_argument] on [λ]. *)
val remove_head : 'a t -> 'a t

(** [sub1 a i j] is the paper's [a(i..j)] (1-based, inclusive); the empty
    sequence when [i > j].  Raises [Invalid_argument] when indices fall
    outside [1..length a] (except that [i = j + 1] is allowed). *)
val sub1 : 'a t -> int -> int -> 'a t

(** [concat a b] is [a + b]. *)
val concat : 'a t -> 'a t -> 'a t

(** [is_prefix a ~of_:b] is the paper's [a ≤ b], using [equal] on elements. *)
val is_prefix : equal:('a -> 'a -> bool) -> 'a t -> of_:'a t -> bool

(** [consistent ~equal l] holds when every two members of [l] are
    prefix-comparable. *)
val consistent : equal:('a -> 'a -> bool) -> 'a t list -> bool

(** [lub ~equal l] is the least upper bound of a consistent collection:
    its longest member.  Raises [Invalid_argument] if [l] is inconsistent or
    empty. *)
val lub : equal:('a -> 'a -> bool) -> 'a t list -> 'a t

(** [applytoall f a] is the paper's [applytoall(f, a)], i.e. map. *)
val applytoall : ('a -> 'b) -> 'a t -> 'b t

(** [filter keep a] keeps the elements satisfying [keep], preserving order
    (the refinement's [purge], Figure 4). *)
val filter : ('a -> bool) -> 'a t -> 'a t

(** [count p a] is the number of elements satisfying [p] (the refinement's
    [purgesize]). *)
val count : ('a -> bool) -> 'a t -> int

val of_list : 'a list -> 'a t
val to_list : 'a t -> 'a list
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val iter : ('a -> unit) -> 'a t -> unit
val exists : ('a -> bool) -> 'a t -> bool
val for_all : ('a -> bool) -> 'a t -> bool
val mem : equal:('a -> 'a -> bool) -> 'a -> 'a t -> bool
val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
val compare : ('a -> 'a -> int) -> 'a t -> 'a t -> int
val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit

(** [to_buffer elt buf a] appends [pp]'s rendering of [a] to [buf], each
    element written by [elt]. *)
val to_buffer : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a t -> unit

(** [common_prefix ~equal l] is the longest sequence that is a prefix of
    every member of [l].  Raises [Invalid_argument] on the empty list. *)
val common_prefix : equal:('a -> 'a -> bool) -> 'a t list -> 'a t
