(** State summaries exchanged at view changes by the TO application
    (Section 6).

    [S = 2^C × seqof(L) × N⁺ × G] with selectors [con], [ord], [next],
    [high]: the known label/payload associations, the tentative delivery
    order, the index of the next unconfirmed position, and the identifier of
    the highest primary view the sender has established.

    Client payloads ([A] in the paper) are opaque strings. *)

type payload = string

(** The label/payload association set [C = L × A], as a map keyed by label. *)
type content = payload Label.Map.t

type t = {
  con : content;
  ord : Label.t Seqs.t;
  next : int;
  high : Gid.t;
}

val make : con:content -> ord:Label.t Seqs.t -> next:int -> high:Gid.t -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** [to_buffer buf x] appends the [pp] rendering of [x] to [buf]. *)
val to_buffer : Buffer.t -> t -> unit

(** The collected summaries of a view's members: a partial function
    [Y : P ⇀ S] ([gotstate] in Figure 5). *)
type gotstate = t Proc.Map.t

(** [knowncontent y = ⋃_{q ∈ dom y} y(q).con]. *)
val knowncontent : gotstate -> content

(** [maxprimary y = max_{q ∈ dom y} y(q).high].
    Raises [Invalid_argument] when [y] is empty. *)
val maxprimary : gotstate -> Gid.t

(** [maxnextconfirm y = max_{q ∈ dom y} y(q).next].
    Raises [Invalid_argument] when [y] is empty. *)
val maxnextconfirm : gotstate -> int

(** [reps y = {q ∈ dom y : y(q).high = maxprimary y}]. *)
val reps : gotstate -> Proc.Set.t

(** [chosenrep y]: a deterministically chosen element of [reps y] (we take
    the least process identifier; the paper allows any, and determinism makes
    all members converge on the same choice).
    Raises [Invalid_argument] when [y] is empty. *)
val chosenrep : gotstate -> Proc.t

(** [shortorder y = y(chosenrep y).ord]. *)
val shortorder : gotstate -> Label.t Seqs.t

(** [fullorder y]: [shortorder y] followed by the remaining labels of
    [dom (knowncontent y)] in label order. *)
val fullorder : gotstate -> Label.t Seqs.t
