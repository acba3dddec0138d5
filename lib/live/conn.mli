(** A non-blocking framed connection: one socket carrying {!Wire}
    frames in both directions.

    Sends are buffered ({!send} never blocks and never raises): each
    frame is appended whole to one contiguous output buffer per
    connection, so the unwritten bytes are always a run of complete
    frames in send order, the first possibly part-written.  {!flush}
    hands that run to the kernel in one [write] per 64 KiB, so an event
    loop that sends many frames and flushes once per turn pays one
    system call per turn, not one per frame.  {!recv} drains whatever is
    readable and returns the complete frames it reassembled.  A peer
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

(** Read until [EAGAIN] (or EOF / error) and return the complete frames
    received, in order.  Frames already reassembled are returned even on
    the read that detects death. *)
val recv : t -> Wire.frame list

(** Close the descriptor (idempotent); marks the connection dead. *)
val close : t -> unit
