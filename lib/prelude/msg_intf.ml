(** The interface a message alphabet must satisfy to instantiate the VS and
    DVS service specifications.  The services are parametric in the messages
    they carry ([M] / [M_c] in the paper), so each layer of the stack picks
    its own alphabet: opaque client payloads for DVS clients, tagged wire
    messages ("info" / "registered" / client) for the VS instance inside
    DVS-IMPL, and label/summary messages for the TO application. *)

module type S = sig
  type t

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit

  (** [to_buffer buf m] appends the [pp] rendering of [m] to [buf]: state
      keys are written through it. *)
  val to_buffer : Buffer.t -> t -> unit
end

(** Opaque string payloads, the default client alphabet. *)
module String_msg : S with type t = string = struct
  type t = string

  let equal = String.equal
  let compare = String.compare
  let pp = Format.pp_print_string
  let to_buffer = Buffer.add_string
end
