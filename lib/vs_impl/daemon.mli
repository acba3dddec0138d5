(** The membership daemon: the component of the VS engine that decides
    views.

    It watches connectivity (fed to it by the environment through
    [reconfigure]) and issues views for components, with strictly increasing
    identifiers, notifying each member at most once per view and in
    identifier order — exactly the obligations of the Figure 1
    [vs-createview] / [vs-newview] actions it refines to.

    This centralised oracle is a documented substitution for a distributed
    membership protocol (e.g. Transis'): the VS *specification* constrains
    only which views appear and in what per-process order, which the oracle
    enforces by construction; the interesting distributed algorithms in this
    repository (Figures 3 and 5) sit above the VS interface either way. *)

type t = {
  issued : Prelude.View.Set.t;  (** views created so far (excluding [v0]) *)
  next_id : Prelude.Gid.t;
  notified : Prelude.Gid.Bot.t Prelude.Proc.Map.t;
      (** last view id delivered to each process *)
  components : Prelude.Proc.Set.t list;  (** current connectivity *)
}

val initial : p0:Prelude.Proc.Set.t -> t

(** All views ever, including the initial one. *)
val created : p0:Prelude.Proc.Set.t -> t -> Prelude.View.Set.t

(** Install a new connectivity observation. *)
val reconfigure : t -> Prelude.Proc.Set.t list -> t

(** [create t c]: issue a fresh view for component [c] (must be one of the
    current components).  Returns the updated daemon and the view, or [None]
    if [c] is not a current component.  Pacing of view creation is the
    caller's policy; the specification allows any.  [?metrics] bumps
    [daemon.views_created] on success; the result never depends on it. *)
val create :
  ?metrics:Obs.Metrics.t -> t -> Prelude.Proc.Set.t -> (t * Prelude.View.t) option

(** Whether a notification of [v] to [p] is pending ([p ∈ v.set] and [p] has
    not yet seen a view with id ≥ [v.id]). *)
val can_notify : t -> Prelude.View.t -> Prelude.Proc.t -> bool

(** Record the notification.  [?metrics] bumps [daemon.notifications]. *)
val notify : ?metrics:Obs.Metrics.t -> t -> Prelude.View.t -> Prelude.Proc.t -> t

(** The fields, described once (DESIGN.md §13); [permute], [equal] and
    [codec] are derived from it.  A function, to serve any payload type. *)
val record : unit -> ('m, t) Check.Record.t

(** Apply a processor permutation to every processor-indexed field —
    symmetry analysis support. *)
val permute : (Prelude.Proc.t -> Prelude.Proc.t) -> t -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Canonical full-state rendering — dedup-key component for exhaustive
    exploration. *)
val state_key : t -> string

(** Flat canonical codec over the same components {!state_key} renders;
    injective up to [equal]. *)
val codec : t Check.Codec.f
