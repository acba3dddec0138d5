(** One live endpoint: the per-process {!Vs_impl.Engine} driven by a
    real socket event loop.

    The endpoint connects to the hub's Unix-domain socket, names itself
    ([Hello]), and then services the engine: inbound [View_note] /
    [Pkt] / [Client] frames feed [on_newview] / [on_packet] /
    [on_gpsnd]; after every input the engine's enabled outputs are
    drained to a fixpoint (forwards, sequencer rebroadcasts, cumulative
    acks, stable announcements, deliveries, safe indications), and a
    throttled timer re-offers {!Vs_impl.Engine.Make.retransmit_sends}
    so traffic lost in the hub's fault proxy is recovered go-back-N
    style.  At each [View_note] the engine retires the superseded
    views' state ({!Vs_impl.Engine.Make.retire}), keeping only their
    delivered prefixes, as images.  [Snapshot_req] answers with every
    view's delivered prefix; [Shutdown] (or hub death) ends the loop.

    Checking at the source: every accepted forward ("sequenced") and
    every delivery ("deliver") is emitted on component ["vs.engine"],
    appended to a local JSONL file, and fed to the rules that read this
    endpoint's events only ({!Obs.Monitor.local}: unique sequencing,
    contiguous delivery); a rule that latches ships one [Violation]
    frame.  Once per event-loop turn the endpoint sends the hub one
    binary [Delivered] report — the turn's deliveries as values and its
    trace-event count — then flushes the file, then the socket, so the
    file always holds every event the hub has been told of; a SIGKILL
    leaves a decodable prefix, torn at most in its final line.  [Hello]
    names the file, and the endpoint closes it before its socket, so
    when the hub sees the connection end the file is final and the hub
    appends it to its merged trace.

    The same loop runs as an OS process ([bin/dvsd] calls {!run}) or as
    a domain in the orchestrator's process ({!spawn_domain}) — the
    engine, wire format and event loop are identical; only who owns the
    address space differs. *)

type config = {
  me : Prelude.Proc.t;
  sock_path : string;  (** hub's Unix-domain socket *)
  trace_path : string option;  (** local crash-safe JSONL trace *)
  retransmit_s : float;  (** retransmission tick, e.g. 0.2 *)
}

(** Connect and serve until [Shutdown] or hub death.  Raises
    [Unix.Unix_error] if the initial connect fails. *)
val run : config -> unit

(** Run the endpoint loop over an already-connected descriptor (what
    {!run} calls after connecting), tracing to [trace_path] if given. *)
val serve :
  ?trace_path:string ->
  me:Prelude.Proc.t ->
  retransmit_s:float ->
  Unix.file_descr ->
  unit

(** [spawn_domain cfg] connects and serves on a fresh domain; join the
    result after the hub sends [Shutdown]. *)
val spawn_domain : config -> unit Domain.t
