(** A non-blocking framed connection: one socket carrying {!Wire}
    frames in both directions.

    Sends are buffered ({!send} never blocks): each frame is appended
    whole to one contiguous output buffer per connection, so the
    unwritten bytes are always a run of complete frames in send order,
    the first possibly part-written.  A frame is encoded straight into
    that buffer, and a frame image received elsewhere ({!send_image}) is
    copied there as it is, undecoded.  {!flush}
    hands that run to the kernel in one [write] per 64 KiB, so an event
    loop that sends many frames and flushes once per turn pays one
    system call per turn, not one per frame.  {!recv} drains whatever is
    readable and hands each frame to a callback as it decodes;
    {!recv_images} hands over the undecoded images instead.  A peer
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
    connection.  Raises [Invalid_argument] on a frame whose image is
    longer than {!Wire.max_frame}, which the receiving {!Wire.Reader}
    would refuse: an oversize frame fails loudly at its sender, not as
    a dead connection at its receiver. *)
val send : t -> Wire.frame -> unit

(** [send_image t b ~pos ~len] appends the frame image at [pos, pos + len)
    of [b] — one {!Wire.Reader} handed over — behind its length, as it
    is: the bytes {!send} would write for the frame it decodes to.
    Silently dropped on a dead connection; raises [Invalid_argument]
    beyond {!Wire.max_frame}, as {!send} does. *)
val send_image : t -> bytes -> pos:int -> len:int -> unit

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
    the read that detects death are still handed over; a frame that
    fails to decode kills the connection (a ["framing: ..."] {!error}).
    [f] may {!send} on [t]; if [f] closes [t], [recv] stops.  [f] must
    not call [recv] on [t]. *)
val recv : t -> (Wire.frame -> unit) -> unit

(** {!recv} without the decode: [recv_images t f] calls [f buf pos len]
    for each complete frame image, [len] bytes at [pos] of [buf], which
    stay valid only until [f] returns.  Nothing about the image is
    checked but its length; [f] decodes or verifies it
    ({!Wire.decode_sub}, {!Wire.pkt_dst}) and calls {!fail} on a
    corrupt one.  The rest is as for {!recv}. *)
val recv_images : t -> (bytes -> int -> int -> unit) -> unit

(** Mark the connection dead, with [reason] as its {!error} (unless it
    is dead already); the descriptor stays open until {!close}. *)
val fail : t -> string -> unit

(** Close the descriptor (idempotent); marks the connection dead. *)
val close : t -> unit
