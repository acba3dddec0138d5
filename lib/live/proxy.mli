(** The faultable forwarding plane: every engine packet the hub routes
    between endpoints passes through one {!route} call, which executes
    the active {!Sim.Faults} phase on live traffic — per-channel drop,
    duplicate and reorder draws from a seeded RNG, plus partition
    enforcement (packets crossing component boundaries are dropped).

    The proxy decides over a [Pkt] frame's image, as it arrived: the
    hub never decodes a packet to route it, and hands {!route} nothing
    but [Pkt] images.  The control plane (views, client injections,
    reports, snapshots) does not pass through here, so it stays
    reliable — the service being torture-tested is the protocol, not
    the harness.

    Reordering is a per-channel one-slot stash: a reorder draw holds a
    copy of the image, and the channel's next packet is delivered ahead
    of it (a pairwise swap, mirroring [Vs_impl.Fault]'s in-flight
    transposition).  {!flush} releases every held packet — call it on
    phase changes and when draining, so a calm tail sees the whole
    stream. *)

type t

val create : ?metrics:Obs.Metrics.t -> seed:int -> unit -> t

(** Install a phase's intensity and partition.  Does not flush the
    reorder stash — do that explicitly and deliver the result. *)
val set_phase : t -> Sim.Faults.phase -> unit

(** Back to lossless fully-connected routing. *)
val clear : t -> unit

(** What to deliver to [dst] now. *)
type verdict =
  | Drop  (** nothing: dropped, cut by the partition, or held *)
  | Once  (** the image, once *)
  | Twice  (** the image, duplicated *)
  | Once_then of bytes
      (** the image, then the channel's held packet (this whole image) *)

(** [route t ~src ~dst b ~pos ~len] decides the fate of the [Pkt] image
    at [pos, pos + len) of [b] on channel [src → dst].  One RNG draw per
    packet, except on a channel releasing a held packet, and nothing is
    allocated but the draw and, on a reorder, the held copy.  The image
    is read only to copy it, so it may be a reader's slice. *)
val route :
  t -> src:Prelude.Proc.t -> dst:Prelude.Proc.t -> bytes -> pos:int -> len:int -> verdict

(** Release all held packets as [(src, dst, image)] triples, oldest
    first. *)
val flush : t -> (Prelude.Proc.t * Prelude.Proc.t * bytes) list
