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
    style.  [Snapshot_req] answers with the per-view delivered
    prefixes; [Shutdown] (or hub death) ends the loop.

    Tracing: every accepted forward ("sequenced") and every delivery
    ("deliver") is emitted on component ["vs.engine"], appended to a
    local JSONL file and shipped to the hub as a [Trace_line] frame for
    online monitoring.  Both outputs are buffered and flushed once per
    event-loop turn, the file immediately before the socket, so the
    file always holds every event the hub can have received; a SIGKILL
    leaves a decodable prefix, torn at most in its final line.

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

(** Run the endpoint loop over an already-connected descriptor (domain
    mode; also what {!run} calls after connecting). *)
val serve :
  ?trace_oc:out_channel ->
  me:Prelude.Proc.t ->
  retransmit_s:float ->
  Unix.file_descr ->
  unit

(** [spawn_domain cfg] connects and serves on a fresh domain; join the
    result after the hub sends [Shutdown]. *)
val spawn_domain : config -> unit Domain.t
