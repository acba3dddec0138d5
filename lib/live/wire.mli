(** The live runtime's wire protocol: every byte that crosses a socket
    between an endpoint daemon ([bin/dvsd]) and the hub is one
    {!frame}, encoded by the same framed {!Check.Codec} machinery the
    checker uses for counterexample files — magic, id, version,
    body-length and a 128-bit checksum, so a truncated or corrupted
    frame is rejected ([Error _]), never mis-decoded.

    On the stream each frame is preceded by a 4-byte big-endian length
    of its codec image ({!to_wire}); {!module-Reader} reassembles frame
    images from arbitrary read chunks (short reads, coalesced writes)
    and hands each over as a slice of its buffer.  A router need not
    decode a [Pkt] to forward it: {!pkt_dst} verifies the image in
    place and reads the two fields routing needs.

    Client payloads are opaque strings ({!Prelude.Msg_intf.String_msg},
    the stack's default alphabet), so the engine packets ride
    [Vs_impl.Packet.codec Check.Codec.string]. *)

type packet = string Vs_impl.Packet.t

(** One client delivery an endpoint made: position [sn] of view [gid]'s
    total order held [msg], sent by [origin]. *)
type delivery = {
  gid : Prelude.Gid.t;
  sn : int;
  origin : Prelude.Proc.t;
  msg : string;
}

type frame =
  | Hello of { proc : Prelude.Proc.t; trace : string option }
      (** first frame on a connection: the endpoint names itself and
          its local JSONL trace file, if it keeps one *)
  | Pkt of { src : Prelude.Proc.t; dst : Prelude.Proc.t; pkt : packet }
      (** engine traffic, routed (and faulted) by the hub's proxy *)
  | View_note of Prelude.View.t
      (** hub → endpoint: membership service issues a view *)
  | Client of string  (** hub → endpoint: inject one client send *)
  | Trace_line of string
      (** one JSONL {!Obs.Trace} event line.  No endpoint sends it any
          more (they ship {!Delivered} reports); it is kept only because
          [benchmark/replay.ml] times its encode and decode *)
  | Snapshot_req  (** hub → endpoint: request a delivery snapshot *)
  | Snapshot_part of { gid : Prelude.Gid.t; piece : string }
      (** endpoint → hub: the next bytes of view [gid]'s {!prefix_image}
          (its delivered prefix in delivery order,
          {!Vs_impl.Engine.Make.delivered_prefix}).  A view's pieces are
          consecutive frames; see {!snapshot} *)
  | Snapshot_done of { views : int }
      (** endpoint → hub: the snapshot whose [views] views the
          [Snapshot_part] frames before it carried is complete *)
  | Shutdown  (** hub → endpoint: drain and exit cleanly *)
  | Delivered of {
      proc : Prelude.Proc.t;
      events : int;  (** trace events emitted in the same loop turn *)
      records : delivery list;  (** in delivery order *)
    }
      (** endpoint → hub, once per loop turn: what it delivered and how
          many trace events it emitted since its last report *)
  | Violation of Obs.Monitor.violation
      (** endpoint → hub: a rule the endpoint runs on its own events
          ({!Obs.Monitor.local}) latched *)

val pp : Format.formatter -> frame -> unit

(** The framed codec (id ["live-wire"], version 3). *)
val codec : frame Check.Codec.t

(** One frame's framed image (no stream length prefix). *)
val encode : frame -> bytes

(** Inverse of {!encode}: magic/id/version/length/checksum are all
    checked, so any truncation or mutation is an [Error]. *)
val decode : bytes -> (frame, string) result

(** {!decode} of the image at [pos, pos + len) of a larger buffer — a
    {!module-Reader} slice — with no copy of it. *)
val decode_sub : bytes -> pos:int -> len:int -> (frame, string) result

(** [pkt_dst ~src b ~pos ~len] is the [dst] field of the image at
    [pos, pos + len) of [b] when that image is an intact [Pkt] frame
    whose [src] field is [src]; otherwise [-1]: another kind of frame, a
    [Pkt] from another [src], or a corrupt image ({!decode_sub} tells
    which).  Intact means every frame check {!decode} makes — magic, id,
    version, length and the 128-bit checksum ({!Check.Codec.check_frame})
    — done in place, allocating nothing.  The engine packet itself is
    not parsed: its bytes are covered by the checksum, and the receiver
    decodes them. *)
val pkt_dst : src:Prelude.Proc.t -> bytes -> pos:int -> len:int -> int

(** A delivered prefix as a framed image (id ["live-prefix"]), for
    byte-for-byte cross-process agreement checks. *)
val prefix_codec : (string * Prelude.Proc.t) list Check.Codec.t

(** The unframed image of a delivered prefix ({!prefix_codec}'s body):
    how a snapshot carries it, and how an endpoint keeps a retired
    view's prefix. *)
val prefix_image : (string * Prelude.Proc.t) list -> string

(** {!prefix_image} of the entries an iterator visits (it runs twice),
    without building their list. *)
val prefix_image_iter : (((string * Prelude.Proc.t) -> unit) -> unit) -> string

val prefix_of_image : string -> ((string * Prelude.Proc.t) list, string) result

(** {2 Stream framing} *)

(** Hard upper bound on one frame's image (16 MiB); {!module-Reader}
    rejects lengths beyond it instead of allocating, and
    {!Conn.send} refuses to send such a frame. *)
val max_frame : int

(** [snapshot views send] sends a delivery snapshot — per view, the
    {!prefix_image} of its delivered prefix — as [Snapshot_part] frames
    of at most 1 MiB of image each, view by view in order, then one
    [Snapshot_done].  A view's image grows ~13 bytes a delivery, so a
    snapshot sent whole would outgrow {!max_frame} after ~1.3 million
    deliveries; in pieces, no frame comes near it. *)
val snapshot : (Prelude.Gid.t * string) list -> (frame -> unit) -> unit

(** [4-byte big-endian image length · image]. *)
val to_wire : frame -> bytes

(** Incremental frame reassembly from a byte stream.  The reader only
    delimits frames; it hands each image over where it lies, undecoded,
    so a caller can forward its bytes or {!decode_sub} them. *)
module Reader : sig
  type t

  val create : ?max_frame:int -> unit -> t

  (** Append [n] bytes of [src] starting at [off]. *)
  val feed : t -> bytes -> int -> int -> unit

  (** The length of the next complete frame image, which is consumed and
      lies at [image_pos t] in [buffer t] until the next {!feed}; [-1]
      when the buffer holds no complete frame yet, or when the stream is
      corrupt: an out-of-range length prefix, which {!error} then names.
      That error is sticky: the connection should be dropped. *)
  val next : t -> int

  val buffer : t -> bytes
  val image_pos : t -> int
  val error : t -> string option

  (** Bytes buffered but not yet consumed as frames. *)
  val pending : t -> int
end
