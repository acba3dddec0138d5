(** The live runtime's hub: one process that is at once the transport,
    the membership service, the fault injector and the online checker
    for a fleet of endpoint daemons.

    Endpoints connect to the hub's Unix-domain socket and say [Hello];
    every engine packet they exchange is routed through the hub's
    {!Proxy}, which executes the active {!Sim.Faults} phase on live
    traffic.  A [Pkt] frame is routed as the bytes that arrived,
    verified in place ({!Wire.pkt_dst}) and never decoded, unless its
    [src] field names another process than its connection's: then it
    is decoded, its [src] rewritten and the frame re-encoded.  Any frame
    that fails its checks kills the sender's connection.  The hub plays the membership service: whenever the
    connected set or the installed partition changes, it issues a fresh
    view (monotone ids from 1) to each connected component — queued
    ahead of any subsequent packet on each connection, so an endpoint
    always learns its new view before traffic of that view reaches it.

    Checking is split the way the events are (Derecho-style, checked at
    the source): each endpoint runs the rules that read its own events
    only ({!Obs.Monitor.local}) and ships a [Violation] frame when one
    latches; the hub records it in its own {!monitor}
    ({!Obs.Monitor.record}).  Once per loop turn an endpoint sends a
    binary [Delivered] report — its deliveries as values, attributed to
    the connection, and its trace-event count.  From each record the hub
    keeps the drain and throughput accounting, the latency sample of a
    payload's first delivery ([soak.*] metrics) and the one rule that
    spans endpoints, prefix consistency ({!Obs.Monitor.Prefix}); a
    monotone rule watches the hub's own ["live.soak"] progress points.
    Violations latch and {!ok} turns false while the soak is still
    running.  The hub parses no JSON: an endpoint's JSONL trace file,
    named in its [Hello], is appended to the merged trace, whole lines
    only, when its connection ends (a SIGKILL, or EOF after
    [Shutdown]).

    Client load: {!inject} sends one payload to a member of the current
    primary view (largest component), round-robin.  Messages in flight
    across a view change are counted lost ([soak.lost_on_view_change])
    — exactly the weakening the paper's dynamic service permits — and
    drained-ness is judged against the current view only
    ({!injected_in} vs {!delivered_in}). *)

type config = {
  sock_path : string;  (** Unix-domain socket to listen on *)
  universe : Prelude.Proc.Set.t;  (** expected endpoint ids *)
  seed : int;  (** proxy fault RNG *)
  merged_path : string option;
      (** one JSONL file: the hub's own soak events as they happen, then
          each endpoint's trace file as its connection ends *)
}

type t

(** Bind, listen, start with no faults and no connections. *)
val create : config -> t

val metrics : t -> Obs.Metrics.t
val monitor : t -> Obs.Monitor.t

(** No monitor rule has latched. *)
val ok : t -> bool

(** One event-loop iteration: accept, read every connection, route
    packets through the proxy, take reports, reap dead connections
    (merging their traces, reissuing views), flush output.  Blocks at
    most [timeout] seconds. *)
val poll : t -> timeout:float -> unit

val connected : t -> Prelude.Proc.Set.t
val primary : t -> Prelude.View.t option

(** Inject one client payload into the primary view (round-robin over
    its members); [false] when no primary view exists. *)
val inject : t -> string -> bool

(** Total delivery indications observed across all endpoints. *)
val delivered_total : t -> int

(** Payloads delivered at least once. *)
val unique_delivered : t -> int

(** Client sends injected into view [gid]. *)
val injected_in : t -> Prelude.Gid.t -> int

(** Highest position [proc] delivered in view [gid] (0 if none) — equal
    to {!injected_in} at every member exactly when the view has fully
    drained. *)
val delivered_in : t -> proc:Prelude.Proc.t -> gid:Prelude.Gid.t -> int

(** Install a fault phase ([Some]) or return to lossless
    fully-connected routing ([None]).  Releases reordered packets held
    by the proxy and reissues views per connected component. *)
val set_phase : t -> Sim.Faults.phase option -> unit

(** Record connected/universe into the [soak.availability] histogram
    and return it. *)
val availability_sample : t -> float

(** Broadcast [Snapshot_req], clearing previously stored snapshots. *)
val request_snapshots : t -> unit

(** Snapshots received whole since the last {!request_snapshots}: an
    endpoint sends its snapshot in pieces ({!Wire.snapshot}), and it is
    listed here once its closing frame has arrived. *)
val snapshots :
  t -> (Prelude.Proc.t * (Prelude.Gid.t * (string * Prelude.Proc.t) list) list) list

(** Broadcast [Shutdown], then wait up to 3 s for each endpoint's EOF —
    counting its last reports and merging its final trace file — close
    every connection and the listener, remove the socket file, close the
    merged trace. *)
val shutdown : t -> unit
