(** Wire packets of the VS engine (see {!Engine}).

    Within each view, total order is provided by a sequencer (the view's
    least-id member): senders forward payloads ([Fwd]), the sequencer
    assigns sequence numbers and rebroadcasts ([Seq]), receivers acknowledge
    cumulative delivery ([Ack]), and the sequencer announces the stable —
    everywhere-delivered — prefix ([Stable]), which drives safe
    indications.  Every packet names its view, so packets of superseded
    views are processed into that view's (frozen) per-view state and can
    never leak across views. *)

type 'm t =
  | Fwd of {
      gid : Prelude.Gid.t;
      fsn : int;
          (** 1-based per-(sender, view) forward sequence number: the
              sequencer accepts exactly [fsn = watermark + 1], so lost
              forwards can be retransmitted and duplicated or reordered
              ones are discarded instead of double-sequenced *)
      payload : 'm;
    }
  | Seq of {
      gid : Prelude.Gid.t;
      sn : int;  (** 1-based position in the view's order *)
      origin : Prelude.Proc.t;
      payload : 'm;
    }
  | Ack of { gid : Prelude.Gid.t; upto : int }  (** cumulative *)
  | Stable of { gid : Prelude.Gid.t; upto : int }  (** cumulative *)

val gid : 'm t -> Prelude.Gid.t
val is_fwd : 'm t -> bool

(** Apply a processor permutation to the one packet field that names a
    processor ([Seq.origin]) — symmetry analysis support. *)
val permute : (Prelude.Proc.t -> Prelude.Proc.t) -> 'm t -> 'm t
val compare : ('m -> 'm -> int) -> 'm t -> 'm t -> int

val pp :
  (Format.formatter -> 'm -> unit) -> Format.formatter -> 'm t -> unit

(** [to_buffer m buf pkt] appends [pp]'s rendering of [pkt] to [buf], the
    payload written by [m]. *)
val to_buffer : (Buffer.t -> 'm -> unit) -> Buffer.t -> 'm t -> unit

(** Flat canonical codec (tag byte + constructor fields), given a codec
    for the payload; injective up to [compare] equality whenever the
    payload codec is. *)
val codec : 'm Check.Codec.f -> 'm t Check.Codec.f
