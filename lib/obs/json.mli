(** Minimal JSON values with a printer and a parser.

    The build environment has no JSON library (see DESIGN.md §5), so the
    observability layer carries its own: enough of RFC 8259 to round-trip
    trace events and metrics snapshots.  Integers and floats are kept
    distinct — a float always renders with a ['.'] or an exponent, and a
    numeric literal containing either parses as {!Float} — so encode/decode
    is the identity on the values this repository emits.  Non-finite floats
    render as [null] (JSON has no representation for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

(** {2 Rendering into a buffer}

    The pieces {!to_string} is made of, for callers that render a known
    shape straight into their own buffer without building a {!t}: each
    appends exactly the bytes {!to_string} writes for the same value. *)

(** A string literal: quoted, with ['"'], ['\\'] and control characters
    escaped. *)
val add_string : Buffer.t -> string -> unit

val add_int : Buffer.t -> int -> unit

(** A float that parses back as {!Float}; [null] if not finite. *)
val add_float : Buffer.t -> float -> unit

(** Parse one JSON value (surrounding whitespace allowed).  Returns
    [Error msg] on malformed input or trailing garbage. *)
val of_string : string -> (t, string) result

(** Field lookup on an {!Obj}; [None] on other constructors. *)
val member : string -> t -> t option

val equal : t -> t -> bool
