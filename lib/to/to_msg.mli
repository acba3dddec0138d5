(** The message alphabet the TO application sends through DVS (Section 6.1):
    [C ∪ S] — labelled client messages and state-exchange summaries.
    Client payloads ([A] in the paper) are opaque strings.

    Satisfies {!Prelude.Msg_intf.S}, so it instantiates the DVS
    specification and every layer beneath it. *)

type payload = string

type t =
  | Data of Prelude.Label.t * payload  (** an element of [C = L × A] *)
  | Summ of Prelude.Summary.t  (** an element of [S] *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** [to_buffer buf m] appends the [pp] rendering of [m] to [buf]. *)
val to_buffer : Buffer.t -> t -> unit

val is_summary : t -> bool

(** Flat canonical codec (tag byte + payload), injective up to
    [equal]. *)
val codec : t Check.Codec.f
