(** Versioned, canonical flat binary state codecs.

    [state_key] renders a state into a formatted string; at exploration
    scale that string is pure overhead — E15/E17 measure ~180 KB allocated
    per visited state with fingerprinting at 93% of jobs:4 worker time.  A
    codec replaces the string with a flat [Bytes] image that the
    fingerprint reads directly, and that doubles as a decodable wire
    format for counterexample files.

    {b Canonicality.}  Every field codec below is canonical: equal values
    (for the field's structural equality) produce byte-identical images.
    Sets and maps are emitted in ascending key order with a cardinal
    prefix, so the image depends only on the container's contents — the
    same invariant [state_key] relies on.  Consequently a state codec
    assembled from these combinators is injective up to the state's
    structural equality wherever every field is encoded in full, which is
    at least as fine as [state_key]'s equality: fingerprint dedup over
    the flat image merges no states the string path would keep apart
    (see DESIGN.md §13 for the per-entry argument and [test/test_codec.ml]
    for the differential check).

    {b Framing.}  A framed codec ({!type-t}) wraps the field image in
    [magic · id · version · body-length · body · 128-bit checksum].  The
    checksum is the {!Fingerprint} digest of everything before it, so
    truncations and random byte mutations are rejected ([Error _]) rather
    than mis-decoded; a version bump rejects old images with a clean
    "wrong version" error before the body is even looked at. *)

(** {1 Buffers} *)

type wb
(** A growable write buffer; field writers append to it. *)

type rb
(** A bounded read cursor; field readers consume from it. *)

exception Malformed of string
(** Raised by field readers on truncated or ill-formed input.  {!decode}
    catches it (together with any exception escaping a reader, e.g.
    [Prelude.View.make] rejecting an empty membership) and returns
    [Error _]; it only escapes when an ['a f] reader is driven by hand. *)

(** {1 Field codecs} *)

type 'a f = { wr : wb -> 'a -> unit; rd : rb -> 'a }
(** A canonical field encoding: [wr] appends the canonical image of a
    value; [rd] parses one back, raising {!Malformed} on bad input. *)

val byte : int f
(** One unsigned byte, [0..255] — variant tags.  [wr] raises
    [Invalid_argument] outside the range. *)

val int : int f
(** Zigzag varint: small magnitudes (the common case — identifiers,
    sequence numbers) take one byte. *)

val bool : bool f

val float : float f
(** IEEE-754 bits, 8 bytes little-endian — canonical for [Float.equal]
    up to NaN payloads (fault budgets only ever hold written constants). *)

val string : string f
(** Varint length prefix + raw bytes. *)

val unit : unit f
(** Zero bytes. *)

val pair : 'a f -> 'b f -> ('a * 'b) f
val triple : 'a f -> 'b f -> 'c f -> ('a * 'b * 'c) f

val list : 'a f -> 'a list f
(** Varint length prefix + elements in order. *)

val option : 'a f -> 'a option f
(** Tag byte 0 ([None]) or 1 ([Some]) + payload. *)

val via : to_:('a -> 'b) -> of_:('b -> 'a) -> 'b f -> 'a f
(** Transport a codec across an isomorphism: canonical iff [to_] maps
    equal values to equal images under the carrier codec. *)

val memo : 'a f -> 'a f
(** [memo c] writes what [c] writes, but when writing into a {!scratch}
    it caches the byte segment [c] wrote for a value, keyed by physical
    identity ([==]), and on a later write of the {e same} value blits
    the cached segment instead of re-running [c.wr].  The image is
    byte-identical: a physically equal immutable value is structurally
    equal, and every field image is position-independent.

    {b Only wrap codecs of immutable values} (no mutable fields or
    arrays anywhere inside): a value mutated after it was cached would
    be written with its stale image.

    Each scratch keeps its own 4-way LRU cache per memo site, so
    scratches stay single-threaded and domain-safe with no locks.
    One-shot {!encode} bypasses the memo entirely.  Building a site is
    one atomic counter bump.  [rd] is [c.rd] unchanged. *)

(** {1 Prelude codecs}

    Sets and maps are written as cardinal prefix + ascending-order
    contents (a direct fold — no intermediate list), hence canonical for
    the container's structural equality. *)

val proc : Prelude.Proc.t f
val gid : Prelude.Gid.t f
val gid_bot : Prelude.Gid.Bot.t f
val view : Prelude.View.t f
val label : Prelude.Label.t f
val proc_set : Prelude.Proc.Set.t f
val gid_set : Prelude.Gid.Set.t f
val view_set : Prelude.View.Set.t f
val label_set : Prelude.Label.Set.t f
val proc_map : 'a f -> 'a Prelude.Proc.Map.t f
val gid_map : 'a f -> 'a Prelude.Gid.Map.t f
val label_map : 'a f -> 'a Prelude.Label.Map.t f
val pg_map : 'a f -> 'a Prelude.Pg_map.t f

val seqs : 'a f -> 'a Prelude.Seqs.t f
(** Length prefix + elements in sequence order. *)

val summary : Prelude.Summary.t f
(** TO-IMPL state-exchange summaries. *)

(** {1 Framed state codecs} *)

type 's t
(** A registry automaton's state codec: an [id] naming the entry, a
    [version], and the state's field codec. *)

val make : id:string -> version:int -> 's f -> 's t

val id : 's t -> string
val version : 's t -> int
val field : 's t -> 's f

val with_version : int -> 's t -> 's t
(** Same field codec under a different version tag — images produced by
    one are rejected by the other. *)

val encode : 's t -> 's -> bytes
(** Full frame: [magic · id · version · body-length · body · checksum].
    Allocates only the frame: the body is written to a buffer each domain
    keeps between calls. *)

val decode : 's t -> bytes -> ('s, string) result
(** Inverse of {!encode}.  Checks, in order: magic, id, version (so a
    version mismatch is reported as such, not as corruption), frame
    length, checksum, and finally that the body decodes consuming
    exactly its declared length.  Any failure — including an exception
    escaping a field reader — yields [Error _]; a mutated or truncated
    buffer never mis-decodes silently, because it cannot satisfy the
    128-bit checksum. *)

(** {1 Fingerprinting without framing}

    The explorer's hot path wants the digest of a state, not the frame:
    {!encode_into} writes the checksum preimage ([id · version · body])
    into a reusable scratch buffer and {!fingerprint} digests it — zero
    per-state allocation once the scratch has grown to steady state.
    Scratches are single-threaded; the parallel explorer keeps one per
    worker slot. *)

type scratch

val scratch : unit -> scratch

val encode_into : 's t -> scratch -> 's -> unit
(** Reset the scratch and write [id · version · body] for the state. *)

val scratch_contents : scratch -> bytes * int
(** The scratch's buffer and the number of valid bytes.  The buffer is
    reused by the next {!encode_into}; copy it if it must survive. *)

val fingerprint : 's t -> scratch -> 's -> Fingerprint.t
(** [encode_into] + {!Fingerprint.of_bytes} over the scratch contents.
    Agrees with the digest {!encode}/{!decode} embed in the frame. *)

(** {1 Hex}

    Counterexample files carry frames as lowercase hex text. *)

val to_hex : bytes -> string
val of_hex : string -> (bytes, string) result
