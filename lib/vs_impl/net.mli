(** An asynchronous point-to-point network with FIFO channels, dynamic
    partitions and an optional adversarial fault model.

    Under the default {!Fault.none} policy, channels never lose or reorder
    messages; a partition only *blocks* delivery between separated
    processes (packets wait in the channel and become deliverable again
    after a merge), and crashes are modelled as permanent partitions.

    A faulty policy additionally enables three budget-capped mutations —
    {!drop} (lose the head packet), {!duplicate} (re-enqueue a copy of the
    head at the tail) and {!reorder} (rotate the head to the tail) — which
    the {!Stack} composition exposes as internal actions.  The engines
    tolerate them with per-sender forward sequence numbers (duplicate
    suppression) and retransmission keyed off the cumulative-[Ack]
    machinery; {!Stack_refinement} reconstructs the abstract [pending]
    queue from engine state rather than channel contents, so a lost
    forwarded message stays pending (as Figure 1 requires) until its
    retransmission is sequenced. *)

module Make (M : Prelude.Msg_intf.S) : sig
  type packet = M.t Packet.t

  type state = {
    channels : packet Prelude.Seqs.t Prelude.Pg_map.t;
        (** FIFO channel keyed by (src, dst) *)
    blocked : (Prelude.Proc.t * Prelude.Proc.t) list;
        (** ordered pairs currently separated *)
    faults : Fault.policy;  (** static per segment; see {!with_faults} *)
    dropped : int;  (** drops consumed against [faults.max_drops] *)
    duplicated : int;
    reordered : int;
  }

  (** Lossless: empty channels, no partitions, {!Fault.none}. *)
  val initial : state

  (** Install a policy and reset the consumed-budget counters — used at
      the start of a soak segment. *)
  val with_faults : state -> Fault.policy -> state

  (** [connected s p q]: may a packet flow from [p] to [q] right now? *)
  val connected : state -> Prelude.Proc.t -> Prelude.Proc.t -> bool

  (** ["fwd"], ["seq"], ["ack"] or ["stable"]. *)
  val pkt_kind : packet -> string

  (** [send s ~src ~dst pkt]: enqueue (always possible).  [?metrics]
      bumps the [net.sent] counter and a per-packet-kind subcounter
      ([net.sent.fwd] / [.seq] / [.ack] / [.stable]); the returned state
      never depends on it. *)
  val send :
    ?metrics:Obs.Metrics.t ->
    state ->
    src:Prelude.Proc.t ->
    dst:Prelude.Proc.t ->
    packet ->
    state

  (** Head of the (src, dst) channel, if any. *)
  val head : state -> src:Prelude.Proc.t -> dst:Prelude.Proc.t -> packet option

  (** [deliverable s ~src ~dst]: head exists and the pair is connected. *)
  val deliverable : state -> src:Prelude.Proc.t -> dst:Prelude.Proc.t -> packet option

  (** Remove the head (the delivery effect).  Raises if empty.
      [?metrics] bumps [net.delivered]. *)
  val pop :
    ?metrics:Obs.Metrics.t ->
    state ->
    src:Prelude.Proc.t ->
    dst:Prelude.Proc.t ->
    state

  (** Install a new connectivity relation from components: pairs in
      different components are blocked.  [?metrics] bumps
      [net.reconfigures]. *)
  val reconfigure :
    ?metrics:Obs.Metrics.t -> state -> Prelude.Proc.Set.t list -> state

  val in_flight : state -> int

  (** {2 Fault injection}

      Enabledness gates and effects of the three fault mutations.  Each
      gate requires remaining budget and a (long enough) channel; each
      effect consumes one unit of budget and bumps [net.dropped] /
      [net.duplicated] / [net.reordered]. *)

  val can_drop : state -> src:Prelude.Proc.t -> dst:Prelude.Proc.t -> bool
  val can_duplicate : state -> src:Prelude.Proc.t -> dst:Prelude.Proc.t -> bool
  val can_reorder : state -> src:Prelude.Proc.t -> dst:Prelude.Proc.t -> bool

  val drop :
    ?metrics:Obs.Metrics.t ->
    state -> src:Prelude.Proc.t -> dst:Prelude.Proc.t -> state

  val duplicate :
    ?metrics:Obs.Metrics.t ->
    state -> src:Prelude.Proc.t -> dst:Prelude.Proc.t -> state

  val reorder :
    ?metrics:Obs.Metrics.t ->
    state -> src:Prelude.Proc.t -> dst:Prelude.Proc.t -> state

  (** [in_channel s ~src ~dst pkt]: is an identical packet already in
      flight on that channel?  Gates retransmission so the faulty state
      space stays finite (a retransmit can cycle, but never grow a channel
      beyond one copy per retransmittable packet). *)
  val in_channel :
    state -> src:Prelude.Proc.t -> dst:Prelude.Proc.t -> packet -> bool

  (** The fields, described once (DESIGN.md §13); [permute], [equal] and
      [codec_state] are derived from it. *)
  val record : (M.t, state) Check.Record.t

  (** Apply a processor permutation: channels are re-keyed, packet
      origins mapped, blocked pairs mapped — symmetry analysis support.
      Fault budgets are processor-free and unchanged. *)
  val permute : (Prelude.Proc.t -> Prelude.Proc.t) -> state -> state

  val equal : state -> state -> bool
  val pp : Format.formatter -> state -> unit

  (** Canonical full-state rendering — dedup-key component for exhaustive
      exploration; injective whenever [M.pp] is.  The blocked-pair list is
      sorted, so set-equal states render identically.  Consumed fault
      budgets are rendered only under a faulty policy, keeping lossless
      keys byte-identical to the pre-fault-model ones. *)
  val state_key : state -> string

  (** [key_to_buffer buf s] appends [state_key s] to [buf]. *)
  val key_to_buffer : Buffer.t -> state -> unit

  (** Flat canonical codec, given a payload codec.  The blocked-pair list
      is written sorted-deduplicated, so set-equal states encode
      identically; the fault policy and consumed budgets are encoded in
      full (both constant, respectively monotone, within one
      exploration). *)
  val codec_state : M.t Check.Codec.f -> state Check.Codec.f
end
