(** The per-process VS engine: sequencer-based total order within each
    view.

    Within view [v], the member with the least identifier is the
    *sequencer*.  A sender forwards each client message to the sequencer
    ([Fwd]); the sequencer appends it to the view's log and rebroadcasts it
    with its position ([Seq]); every member delivers in position order and
    acknowledges cumulatively ([Ack]); the sequencer computes the stable
    prefix (delivered by all members) and announces it ([Stable]), which
    licenses the member's safe indications.

    All bookkeeping is per-view and views are never garbage collected, so
    packets of superseded views are absorbed harmlessly — this is what makes
    the refinement to Figure 1 exact (the abstract [pending]/[queue] state
    is total over views).  The engine is a pure state machine; the {!Stack}
    composition wires it to the {!Net} and {!Daemon} automata.

    Under an adversarial transport ({!Fault}), three mechanisms keep the
    refinement intact: each [Fwd] carries a per-(sender, view) forward
    sequence number and the sequencer accepts exactly the watermark
    successor (duplicate suppression, go-back-N); {!retransmit_sends}
    re-offers unacknowledged [Fwd]/[Seq] traffic (plus the cumulative
    [Ack]/[Stable] bounds) keyed off the existing ack machinery; and with
    [drop_stale] set, packets of superseded views are discarded outright
    instead of absorbed. *)

module Make (M : Prelude.Msg_intf.S) : sig
  type packet = M.t Packet.t

  (** Protocol variants for seeded-defect testing.  [Faithful] is the real
      engine.  [No_dedup] breaks the forward watermark (duplicates get
      sequenced twice — caught as a refinement step failure).
      [No_retransmit] offers no retransmissions (lost packets strand the
      protocol — caught as a liveness-style deadlock finding). *)
  type variant = Faithful | No_dedup | No_retransmit

  type state = {
    me : Prelude.Proc.t;
    cur : Prelude.View.t option;
    views_seen : Prelude.View.t Prelude.Gid.Map.t;
    outq : M.t Prelude.Seqs.t Prelude.Gid.Map.t;
        (** client messages not yet forwarded, per view *)
    fwd_log : M.t Prelude.Seqs.t Prelude.Gid.Map.t;
        (** sender role: everything ever forwarded, per view; position =
            forward sequence number *)
    seq_log : (M.t * Prelude.Proc.t) Prelude.Seqs.t Prelude.Gid.Map.t;
        (** sequencer role: the view's assigned order *)
    fwd_seen : int Prelude.Pg_map.t;
        (** sequencer role: (sender, gid) → accepted-forward watermark *)
    bcast_sent : int Prelude.Pg_map.t;  (** (dst, gid) → entries rebroadcast *)
    acked_by : int Prelude.Pg_map.t;  (** (member, gid) → cumulative ack *)
    stable_sent : int Prelude.Pg_map.t;  (** (dst, gid) → stable bound sent *)
    rcv_buf : (M.t * Prelude.Proc.t) Prelude.Pg_map.t;
        (** receiver role, keyed (gid, sn) *)
    next_deliver : int Prelude.Gid.Map.t;  (** init 1, per view *)
    next_safe : int Prelude.Gid.Map.t;  (** init 1, per view *)
    acked_upto : int Prelude.Gid.Map.t;  (** what this process acked, per view *)
    stable_upto : int Prelude.Gid.Map.t;  (** stable bound learned, per view *)
    variant : variant;  (** static *)
    drop_stale : bool;  (** static: discard superseded-view packets *)
  }

  val initial :
    ?variant:variant ->
    ?drop_stale:bool ->
    p0:Prelude.Proc.Set.t ->
    Prelude.Proc.t ->
    state

  (** The sequencer of a view: its least-id member. *)
  val sequencer : Prelude.View.t -> Prelude.Proc.t

  val cur_id : state -> Prelude.Gid.Bot.t
  val outq_of : state -> Prelude.Gid.t -> M.t Prelude.Seqs.t
  val fwd_log_of : state -> Prelude.Gid.t -> M.t Prelude.Seqs.t
  val seq_log_of : state -> Prelude.Gid.t -> (M.t * Prelude.Proc.t) Prelude.Seqs.t

  (** The accepted-forward watermark this (sequencer) state holds for
      [src] in the given view; [0] before any forward was accepted. *)
  val fwd_seen_of : state -> src:Prelude.Proc.t -> Prelude.Gid.t -> int

  val next_deliver_of : state -> Prelude.Gid.t -> int
  val next_safe_of : state -> Prelude.Gid.t -> int

  (** [accepts_fwd st ~src ~gid ~fsn]: would this [Fwd] advance the
      watermark and be sequenced (rather than discarded as stale or
      duplicate)?  Pre-state predicate; the refinement maps exactly the
      accepting deliveries to the specification's [vs-order]. *)
  val accepts_fwd :
    state -> src:Prelude.Proc.t -> gid:Prelude.Gid.t -> fsn:int -> bool

  (** {2 Input effects}

      Every [?metrics] below only bumps a counter ([engine.newview],
      [engine.packets_in], [engine.deliveries],
      [engine.safe_indications]); returned states never depend on it.
      [?sink] emits points on component ["vs.engine"]: a ["sequenced"]
      event (p, gid, src, fsn, sn) whenever a [Fwd] is accepted and
      assigned the next position — the stream
      [Obs.Monitor.unique_sequencing] watches for duplicates — plus
      ["deliver"] (p, gid, sn, origin, msg) and ["safe"] (p, gid, sn)
      indications.  Returned states never depend on it either. *)

  val on_gpsnd : state -> M.t -> state
  val on_newview : ?metrics:Obs.Metrics.t -> state -> Prelude.View.t -> state

  (** Process a packet from the network (sender [src]). *)
  val on_packet :
    ?metrics:Obs.Metrics.t ->
    ?sink:Obs.Trace.sink ->
    state ->
    src:Prelude.Proc.t ->
    packet ->
    state

  (** {2 Output candidates and their effects}

      [*_sends] enumerate the network sends currently enabled (destination
      and packet); the corresponding [sent_*] applies the local effect of
      performing one.  The {!Stack} uses the enumerations both as
      enabledness checks and as scheduler candidates. *)

  val fwd_send : state -> (Prelude.Proc.t * packet) option
  val sent_fwd : state -> state

  val bcast_sends : state -> (Prelude.Proc.t * packet) list
  val sent_bcast : state -> dst:Prelude.Proc.t -> gid:Prelude.Gid.t -> state

  val ack_sends : state -> (Prelude.Proc.t * packet) list
  val sent_ack : state -> gid:Prelude.Gid.t -> upto:int -> state

  val stable_sends : state -> (Prelude.Proc.t * packet) list
  val sent_stable : state -> dst:Prelude.Proc.t -> gid:Prelude.Gid.t -> upto:int -> state

  (** Current-view re-sends of possibly-lost traffic: unacknowledged
      forwards (beyond the own-origin entries visible in [rcv_buf]),
      rebroadcasts past the destination's cumulative ack, the latest
      [Ack] while the stable bound lags it, and the current [Stable]
      bound.  All idempotent at the receiver; no local effect when
      performed (the original [sent_*] bookkeeping already happened).
      Empty for the [No_retransmit] variant.  The {!Stack} schedules
      these only under a faulty policy and only when no identical packet
      is in flight. *)
  val retransmit_sends : state -> (Prelude.Proc.t * packet) list

  (** The own-origin entries of view [g] in [rcv_buf]: how many of my
      forwards in [g] I know were sequenced (a lower bound), where
      {!retransmit_sends} resumes re-sending. *)
  val own_sequenced : state -> Prelude.Gid.t -> int

  (** The client delivery currently enabled: [vs-gprcv (origin, payload)]. *)
  val deliverable : state -> (Prelude.Proc.t * M.t) option

  val delivered : ?metrics:Obs.Metrics.t -> ?sink:Obs.Trace.sink -> state -> state

  (** The delivered prefix of view [g]'s total order, oldest first:
      the (payload, origin) at positions [1 .. next_deliver_of st g - 1].
      What two members of the same view must agree on byte-for-byte up
      to the shorter length (prefix consistency) — live runtime
      snapshots encode this list for cross-process comparison. *)
  val delivered_prefix :
    state -> Prelude.Gid.t -> (M.t * Prelude.Proc.t) list

  (** [iter_delivered st g f] applies [f] to the entries of
      [delivered_prefix st g], in order, without building the list. *)
  val iter_delivered :
    state -> Prelude.Gid.t -> (M.t * Prelude.Proc.t -> unit) -> unit

  (** [retire st] drops every per-view entry of the views below the
      current one (delivered prefixes included).  For the live runtime,
      whose engines run with [drop_stale]: no input reads those entries
      again, and the outputs that would (sends of a superseded view) are
      stale wherever they arrive.  The current view's — and any later
      view's — entries, and so every current-view output, are
      unchanged. *)
  val retire : state -> state

  (** The safe indication currently enabled. *)
  val safe_ready : state -> (Prelude.Proc.t * M.t) option

  val safed : ?metrics:Obs.Metrics.t -> ?sink:Obs.Trace.sink -> state -> state

  (** The fields, described once (DESIGN.md §13); [permute], [equal] and
      [codec_state] are derived from it. *)
  val record : (M.t, state) Check.Record.t

  (** Apply a processor permutation to every processor-indexed field —
      symmetry analysis support.  Beware: the engine itself is {e not}
      equivariant (the sequencer is the least view member), so this is a
      state transport, not a proof of symmetry. *)
  val permute : (Prelude.Proc.t -> Prelude.Proc.t) -> state -> state

  val equal : state -> state -> bool
  val pp : Format.formatter -> state -> unit

  (** Canonical full-state rendering — dedup-key component for exhaustive
      exploration; injective whenever [M.pp] is. *)
  val state_key : state -> string

  (** [key_to_buffer buf st] appends [state_key st] to [buf]. *)
  val key_to_buffer : Buffer.t -> state -> unit

  (** Flat canonical codec over every state field in declaration order,
      given a payload codec; injective up to structural equality whenever
      the payload codec is. *)
  val codec_state : M.t Check.Codec.f -> state Check.Codec.f
end
