(** Structured trace events and sinks.

    An {!event} is one observation of a running harness: a point
    occurrence or the opening/closing of a span, stamped with a sequence
    number the emitting {!sink} assigns monotonically (0, 1, 2, …), a
    component tag ("ioa.exec", "check.explorer", "sim.avail"), an
    action-class label (the registry classifiers' vocabulary: "dvs-gprcv",
    "progress", …) and a typed key/value payload.

    Sinks are cheap mutable consumers; instrumentation hooks across the
    stack take [?sink:Trace.sink] defaulting to no hook at all, so
    uninstrumented runs are byte-for-byte identical to the pre-obs code.
    Provided sinks: an in-memory ring buffer, a JSONL channel writer, a
    [Logs]-based reporter, a tee, and an arbitrary callback.

    Every sink is domain-safe: a per-sink mutex serializes sequence
    assignment and the write itself, so one sink may be passed to
    [Check.Explorer.run ~jobs:n] and emitted into from every worker
    domain — the stream stays dense and monotone and writes never
    interleave.  The mutex covers emission through the sink only: do not
    also write to a [tee]'s child sink directly from another domain, and
    do not emit into a sink from within its own write callback (the
    mutex is not reentrant). *)

type value = Str of string | Int of int | Float of float | Bool of bool

type kind = Span_open | Span_close | Point

type event = {
  seq : int;  (** assigned by the sink; monotone per sink *)
  kind : kind;
  component : string;
  cls : string;  (** action-class label *)
  span : int option;  (** [Span_close]: seq of the matching [Span_open] *)
  payload : (string * value) list;
}

val pp_event : Format.formatter -> event -> unit
val equal_event : event -> event -> bool

(** {2 Emission} *)

type sink

(** [point sink ~component ~cls payload] emits a point event. *)
val point :
  sink -> component:string -> cls:string -> (string * value) list -> unit

(** [span_open] emits and returns the span's sequence number, to be passed
    to the matching {!span_close}. *)
val span_open :
  sink -> component:string -> cls:string -> (string * value) list -> int

val span_close :
  sink ->
  component:string ->
  cls:string ->
  span:int ->
  (string * value) list ->
  unit

(** Events emitted through this sink so far. *)
val emitted : sink -> int

(** {2 Sinks} *)

(** In-memory ring buffer keeping the most recent [capacity] events
    (default 65536).  [contents] returns them oldest first. *)
val memory : ?capacity:int -> unit -> sink * (unit -> event list)

(** One JSON object per line on the channel, flushed per event. *)
val to_channel : out_channel -> sink

(** Report every event through [Logs] at [level] (default [Logs.Debug])
    on [src] (default the application source). *)
val reporter : ?level:Logs.level -> ?src:Logs.src -> unit -> sink

(** Forward every event to all of [sinks]; the tee assigns the sequence
    numbers. *)
val tee : sink list -> sink

(** A sink that drops everything (still counts sequence numbers). *)
val null : unit -> sink

(** [callback f] invokes [f] on every event, under the sink mutex —
    [f] need not be thread-safe but must not emit back into this sink.
    Building block for stream consumers such as {!Monitor}. *)
val callback : (event -> unit) -> sink

(** {2 Payload access} *)

(** [payload_str key e]: the value of the first binding of [key] in
    [e.payload], if it is a {!Str} ([None] if absent or of another
    type). *)
val payload_str : string -> event -> string option

(** As {!payload_str}, for {!Int}. *)
val payload_int : string -> event -> int option

(** {2 JSONL codec}

    [event_to_string] renders the object field by field and
    [event_of_json] reads its fields in one pass.  They write the same
    bytes, and accept the same inputs with the same result, as rendering
    and reading through a {!Json.t} tree ([test_obs] keeps that tree
    codec as the oracle). *)

(** One line, no trailing newline. *)
val event_to_string : event -> string

val event_of_json : Json.t -> (event, string) result
val event_of_string : string -> (event, string) result

(** Parse a JSONL trace, one event per non-empty line.  Fails on the
    first malformed line ([Error (line_number, msg)], 1-based). *)
val read_jsonl : in_channel -> (event list, int * string) result

(** Crash-tolerant parse: decode the longest valid event prefix and
    return it together with the position and reason of the first
    malformed line, if any.  The {!to_channel} sink builds each line in
    full and flushes per event, so a SIGKILL'd writer tears at most the
    final line — the prefix is still a faithful trace of everything the
    process observed before it died, which is what the online monitors
    replay. *)
val read_jsonl_prefix : in_channel -> event list * (int * string) option
