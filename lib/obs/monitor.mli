(** Online trace monitors: incremental checkers over the live event
    stream, Derecho-style (see PAPERS.md, "Specification and Runtime
    Checking of Derecho").

    A {!rule} consumes one {!Trace.event} at a time, keeps whatever
    incremental state it needs in its closure, and returns [Some reason]
    on the event that completes a violation — so defects are flagged
    while the run is in flight, not by a post-mortem log scan.  A rule
    latches after its first violation (a stream past a broken prefix
    proves nothing further).  Wrap a monitor as a {!Trace.sink} (usually
    one arm of a {!Trace.tee}) to check any instrumented run online. *)

type violation = { rule : string; at_seq : int; reason : string }

val pp_violation : Format.formatter -> violation -> unit

type rule

(** [rule ~name check]: [check] returns [Some reason] on the violating
    event.  State lives in [check]'s closure — build a fresh rule per
    monitored stream. *)
val rule : name:string -> (Trace.event -> string option) -> rule

type t

val create : rule list -> t

(** Feed one event; returns the violations this event completed (empty
    for a clean event).  Thread-safe (one mutex per monitor); rule
    closures themselves run under that mutex and need no locking. *)
val feed : t -> Trace.event -> violation list

(** All violations so far, oldest first. *)
val violations : t -> violation list

val ok : t -> bool
val events_seen : t -> int

(** [record t v] latches [v] as if one of [t]'s rules had completed it:
    the entry point for a rule checked outside this monitor (at an
    endpoint, or by a typed check such as {!Prefix}).  Returns [true]
    when [v] is the first violation of [v.rule] that [t] holds; a later
    one is dropped, since a rule latches after its first violation. *)
val record : t -> violation -> bool

(** The monitor as a sink: every event emitted through it is fed to the
    rules; each fresh violation is additionally emitted on [out] as a
    ["violation"] point (component ["obs.monitor"]) carrying the rule
    name, the triggering event's seq and the reason.  [out] must not be
    this same sink (the per-sink mutex is not reentrant) — tee the
    monitor alongside a JSONL sink and pass that sink as [out]. *)
val sink : ?out:Trace.sink -> t -> Trace.sink

(** {2 Built-in rules}

    Each constructor returns a fresh stateful rule over the
    [vs.engine] / [check.explorer] event vocabulary. *)

(** No (receiver, view, sender, fsn) forward is ever sequenced twice —
    catches the [No_dedup] seeded defect online. *)
val unique_sequencing : unit -> rule

(** Per (process, view), delivered positions walk 1, 2, 3, … *)
val contiguous_delivery : unit -> rule

(** All members agree on the (origin, payload) at each position of a
    view's total order. *)
val prefix_consistent : unit -> rule

(** The state and check behind {!prefix_consistent}, for a caller that
    holds deliveries as values rather than events (the live hub's
    delivery reports). *)
module Prefix : sig
  type t

  (** ["prefix-consistent"], the rule's name. *)
  val name : string

  val create : unit -> t

  (** [check t ~gid ~sn ~origin ~msg]: [Some reason] when another
      member delivered a different entry at position [sn] of view
      [gid] — exactly when {!prefix_consistent} flags the matching
      ["deliver"] event. *)
  val check :
    t -> gid:string -> sn:int -> origin:string -> msg:string -> string option
end

(** A named integer payload key on events of [component] never
    decreases — the generic monotone-progress shape.  [?name] defaults
    to ["monotone-<component>.<key>"]. *)
val monotone : ?name:string -> component:string -> key:string -> unit -> rule

(** The explorer's states count never decreases
    ([monotone ~component:"check.explorer" ~key:"states"]). *)
val monotone_progress : unit -> rule

(** {2 Checking at the source}

    Of the {!standard} rules, {!unique_sequencing} (keyed by the
    receiving sequencer) and {!contiguous_delivery} (keyed by
    process and view) each read one process's events only; run them
    where those events happen and ship only their violations.  The
    rest need every process's deliveries ({!Prefix}) or a single
    observer's progress points ({!monotone}). *)

(** The rules local to one process: [unique_sequencing] and
    [contiguous_delivery], fresh. *)
val local : unit -> rule list

(** Every rule above but [monotone] on one stream: the two {!local}
    rules, [prefix_consistent] and [monotone_progress]. *)
val standard : unit -> rule list
