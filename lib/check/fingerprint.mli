(** 128-bit state fingerprints for exploration dedup.

    The explorer deduplicates states by their canonical [state_key]
    rendering.  Retaining every key string costs memory proportional to the
    total rendered size of the explored set (hundreds of bytes per state for
    the composed stacks); a fingerprint compresses each key to two 64-bit
    lanes, so the seen-set holds 16 bytes per state regardless of key size.

    Soundness caveat: fingerprint equality does not {i prove} key equality —
    a collision between two distinct keys would silently merge two distinct
    states and under-explore.  With 128 bits the expected collision-free
    capacity is astronomically beyond any exploration this repository runs
    (birthday bound ≈ 2⁶⁴ states), and the explorer's [check_key] audit
    turns any collision it can witness into a reported [key_clash] rather
    than a silent merge.  See DESIGN.md §9.

    The hash is a fixed, platform-independent function of the byte sequence:
    two multiply-xor lanes fed 64-bit little-endian words, finalized
    murmur3-style with the total length mixed in.  Digests are stable across
    runs, and a digest of two ranges ({!store2}) is the digest of their
    concatenation. *)

type t = { hi : int64; lo : int64 }

val equal : t -> t -> bool
val compare : t -> t -> int

(** Hash for use in hash tables (folds the low lane). *)
val hash : t -> int

(** 32 lowercase hex digits, high lane first. *)
val to_hex : t -> string

val pp : Format.formatter -> t -> unit

(** [of_string s] digests the whole string in one pass. *)
val of_string : string -> t

(** [of_bytes b ~pos ~len] digests a byte range in one pass — same digest
    as [of_string] on the equivalent string, with no copy.  This is the
    flat-codec hot path: the explorer digests a state's scratch encoding
    directly (see {!Codec.fingerprint}). *)
val of_bytes : bytes -> pos:int -> len:int -> t

(** [store2 b ~pos1 ~len1 ~pos2 ~len2 ~at] writes the digest of the
    concatenation of two ranges of [b] — {!of_bytes} of the two, joined —
    into [b] at [at..at+15], high lane first, each lane big-endian.  The
    lanes stay unboxed to the store, so the call allocates nothing.  This
    is a framed {!Codec} image's checksum: it digests the frame header's
    id and version and the body, skipping the body-length varint between
    them. *)
val store2 :
  bytes -> pos1:int -> len1:int -> pos2:int -> len2:int -> at:int -> unit

(** [check2] is whether the 16 bytes at [at] are what {!store2} would
    write there; it allocates nothing. *)
val check2 :
  bytes -> pos1:int -> len1:int -> pos2:int -> len2:int -> at:int -> bool

(** [shard fp ~shards] maps the fingerprint to its owning shard in
    [0 .. shards - 1] by range-partitioning the high lane's top 16 bits
    (uniform after the finalizer's avalanche).  Deliberately reads bits
    no other consumer folds: {!Table} and {!Set} probe on the low lane —
    so per-shard structures stay uniformly loaded.  The sharded explorer
    uses this as the domain-ownership map.
    [shards <= 1] always returns 0; [shards] need not divide 65536. *)
val shard : t -> shards:int -> int

(** [seed fp extra] derives a [Random.State.make] seed array from the
    fingerprint, prefixed by [extra] (the run-level seed).  Used for the
    explorer's per-state deterministic RNG: the candidate set drawn at a
    state becomes a pure function of (run seed, state key), independent of
    visit order or interleaving. *)
val seed : t -> int array -> int array

(** Hash tables keyed by fingerprints. *)
module Table : Hashtbl.S with type key = t

(** Hash-compacted fingerprint sets for the explorer's throughput mode:
    membership only, 16 flat bytes per entry in unboxed lane arrays —
    no retained states, no per-entry allocation.  Not thread-safe; the
    sharded explorer keeps one set per worker, touched only by its
    owner.  The dedup soundness caveat above applies with full force
    here, since no [check_key] audit is possible without retained
    representatives. *)
module Set : sig
  type elt = t
  type t

  (** [create ?capacity ()] — [capacity] is a hint, rounded up to a
      power of two (minimum 16). *)
  val create : ?capacity:int -> unit -> t

  val mem : t -> elt -> bool

  (** [add s fp] inserts [fp]; [true] iff it was not already present. *)
  val add : t -> elt -> bool

  val cardinal : t -> int
end
