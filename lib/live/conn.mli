(** A non-blocking framed connection: one socket carrying {!Wire}
    frames in both directions.

    Sends are buffered ({!send} never blocks and never raises): each
    frame is appended whole to one contiguous output buffer per
    connection, so the unwritten bytes are always a run of complete
    frames in send order, the first possibly part-written.  {!flush}
    hands that run to the kernel in one [write] per 64 KiB, so an event
    loop that sends many frames and flushes once per turn pays one
    system call per turn, not one per frame.  {!recv} drains whatever is
    readable and hands each frame to a callback as it decodes.  A peer
    death — EOF, [EPIPE]/[ECONNRESET], or a corrupt stream — marks the
    connection dead ({!alive} false, {!error} says why); all later
    operations are no-ops, so callers detect disconnection at their
    next poll instead of handling exceptions mid-loop. *)

type t

(** Takes ownership of the descriptor and switches it to non-blocking.
    Ignore [SIGPIPE] process-wide before using connections. *)
val create : Unix.file_descr -> t

val fd : t -> Unix.file_descr
val alive : t -> bool

(** Why the connection died (["eof"], a syscall error, or a framing
    error), once [not (alive t)]. *)
val error : t -> string option

(** Append a frame to the output buffer.  Silently dropped on a dead
    connection. *)
val send : t -> Wire.frame -> unit

(** Bytes buffered but not yet accepted by the kernel. *)
val pending_out : t -> int

(** Write buffered bytes until the kernel pushes back ([EAGAIN]) or the
    buffer empties: [⌈pending_out / 64 KiB⌉] writes, plus one when the
    kernel pushes back. *)
val flush : t -> unit

(** [recv t f] reads until [EAGAIN] (or EOF / error) and hands each
    complete frame to [f], in order, as soon as its bytes are read: no
    frame is kept once [f] returns (a list of one poll's frames — thousands
    in a storm — was promoted to the major heap).  Frames decoded before
    the read that detects death are still handed over.  [f] may {!send}
    on [t]; if [f] closes [t], [recv] stops.  [f] must not call [recv]
    on [t]. *)
val recv : t -> (Wire.frame -> unit) -> unit

(** Close the descriptor (idempotent); marks the connection dead. *)
val close : t -> unit
