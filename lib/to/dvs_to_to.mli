(** The per-process application automaton DVS-TO-TO_p — Figure 5 of the
    paper: totally-ordered broadcast built on the DVS service (a variant of
    the Amir–Dolev–Keidar–Melliar-Smith–Moser algorithm via Keidar–Dolev).

    Normal activity: client messages get system-wide unique labels, are
    multicast through DVS, tentatively ordered on receipt, confirmed when
    safe, and reported in confirmed order.  Recovery: on a new primary view,
    members exchange state summaries; once a member holds all summaries it
    *establishes* the view in one atomic step (adopting [fullorder]),
    registers it with DVS, and resumes; once the exchange is safe, all
    exchanged labels become confirmed.

    [buildorder] and [established] are history variables supporting the
    Section 6.2 invariants ([buildorder[g]] records the order as last built
    while the process was in view [g]).

    Reading note (found by mechanized checking, see EXPERIMENTS.md E5):
    Figure 5's [LABEL] transition has no [status] precondition.  A label
    minted while the state exchange is in progress rides inside the
    process's summary and *also* as a later normal message, so receivers
    order it twice, breaking the total order.  We add the precondition
    [status = normal]; the [delay] buffer already exists to hold client
    messages that cannot be labelled yet. *)

type payload = string

type status = Normal | Send | Collect

val pp_status : Format.formatter -> status -> unit

type state = {
  me : Prelude.Proc.t;
  current : Prelude.View.t option;
  status : status;
  content : payload Prelude.Label.Map.t;
  nextseqno : int;
  buffer : Prelude.Label.t Prelude.Seqs.t;
  safe_labels : Prelude.Label.Set.t;
  order : Prelude.Label.t Prelude.Seqs.t;
  nextconfirm : int;
  nextreport : int;
  highprimary : Prelude.Gid.t;
  gotstate : Prelude.Summary.gotstate;
  safe_exch : Prelude.Proc.Set.t;
  registered : Prelude.Gid.Set.t;
  delay : payload Prelude.Seqs.t;
  established : Prelude.Gid.Set.t;  (** history: views established here *)
  buildorder : Prelude.Label.t Prelude.Seqs.t Prelude.Gid.Map.t;
      (** history: the order as last built in each view *)
}

type action =
  | Bcast of payload  (** input from the client *)
  | Label_msg of payload  (** internal [LABEL(a)] *)
  | Dvs_gpsnd of To_msg.t  (** output to DVS *)
  | Dvs_gprcv of Prelude.Proc.t * To_msg.t  (** input from DVS *)
  | Dvs_safe of Prelude.Proc.t * To_msg.t  (** input from DVS *)
  | Dvs_newview of Prelude.View.t  (** input from DVS *)
  | Dvs_register  (** output to DVS *)
  | Confirm  (** internal *)
  | Brcv of Prelude.Proc.t * payload  (** output to the client; origin q *)

val initial : p0:Prelude.Proc.Set.t -> Prelude.Proc.t -> state

include Ioa.Automaton.S with type state := state and type action := action

(** Canonical full-state rendering of all seventeen fields, used as the
    dedup key for exhaustive exploration. *)
val state_key : state -> string

(** [key_to_buffer buf s] appends [state_key s] to [buf]. *)
val key_to_buffer : Buffer.t -> state -> unit

(** Flat canonical codec derived from the state's one description
    (DESIGN.md §13), injective up to [equal_state]. *)
val codec_state : state Check.Codec.f

(** The summary this process would send in its next state exchange. *)
val summary : state -> Prelude.Summary.t

val current_id : state -> Prelude.Gid.Bot.t
val established_in : state -> Prelude.Gid.t -> bool

(** The confirmed prefix [order(1..nextconfirm-1)]. *)
val confirmed_prefix : state -> Prelude.Label.t Prelude.Seqs.t
