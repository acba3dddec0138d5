open Prelude

type config = {
  sock_path : string;
  universe : Proc.Set.t;
  seed : int;
  merged_path : string option;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  mutable anon : Conn.t list;  (* accepted, no Hello yet *)
  mutable conns : (Proc.t * Conn.t) list;
  proxy : Proxy.t;
  monitor : Obs.Monitor.t;
  metrics : Obs.Metrics.t;
  merged_oc : out_channel option;
  mutable next_gid : Gid.t;
  mutable member_view : View.t Proc.Map.t;
  mutable primary : View.t option;
  mutable partition : Sim.Partition.t option;
  mutable stormy : bool;
  inflight : (string, float) Hashtbl.t;  (* payload -> inject time (ms) *)
  mutable injected : int Gid.Map.t;
  delivered_sn : (string * string, int) Hashtbl.t;  (* (p, gid) -> max sn *)
  mutable delivered_total : int;
  mutable unique_delivered : int;
  mutable snaps : (Proc.t * (Gid.t * (string * Proc.t) list) list) list;
  mutable hub_seq : int;  (* seq for hub-authored soak events *)
  mutable last_note : float;
  mutable rr : int;
}

let now () = Unix.gettimeofday ()

let create cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try Unix.unlink cfg.sock_path with Unix.Unix_error _ | Sys_error _ -> ());
  Unix.bind fd (ADDR_UNIX cfg.sock_path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  let metrics = Obs.Metrics.create () in
  {
    cfg;
    listen_fd = fd;
    anon = [];
    conns = [];
    proxy = Proxy.create ~metrics ~seed:cfg.seed ();
    monitor =
      Obs.Monitor.create
        (Obs.Monitor.standard ()
        @ [ Obs.Monitor.monotone ~component:"live.soak" ~key:"delivered" () ]);
    metrics;
    merged_oc = Option.map open_out cfg.merged_path;
    next_gid = Gid.succ Gid.g0;
    member_view = Proc.Map.empty;
    primary = None;
    partition = None;
    stormy = false;
    inflight = Hashtbl.create 4096;
    injected = Gid.Map.empty;
    delivered_sn = Hashtbl.create 64;
    delivered_total = 0;
    unique_delivered = 0;
    snaps = [];
    hub_seq = 0;
    last_note = 0.;
    rr = 0;
  }

let metrics t = t.metrics
let monitor t = t.monitor
let ok t = Obs.Monitor.ok t.monitor
let delivered_total t = t.delivered_total
let unique_delivered t = t.unique_delivered
let primary t = t.primary
let snapshots t = t.snaps

let connected t =
  List.fold_left
    (fun acc (p, c) -> if Conn.alive c then Proc.Set.add p acc else acc)
    Proc.Set.empty t.conns

let injected_in t g = Option.value ~default:0 (Gid.Map.find_opt g t.injected)

let delivered_in t ~proc ~gid =
  Option.value ~default:0
    (Hashtbl.find_opt t.delivered_sn (Proc.to_string proc, Gid.to_string gid))

(* ---------------- collector ---------------- *)

let write_merged t line =
  match t.merged_oc with
  | None -> ()
  | Some oc ->
      output_string oc line;
      output_char oc '\n'

let p_str = Obs.Trace.payload_str
let p_int = Obs.Trace.payload_int

let feed_monitor t e =
  let fresh = Obs.Monitor.feed t.monitor e in
  if fresh <> [] then
    Obs.Metrics.incr ~by:(List.length fresh) t.metrics
      "soak.monitor_violations"

let on_deliver t e =
  t.delivered_total <- t.delivered_total + 1;
  Obs.Metrics.incr t.metrics "soak.delivered";
  (match (p_str "p" e, p_str "gid" e, p_int "sn" e) with
  | Some p, Some gid, Some sn ->
      let k = (p, gid) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt t.delivered_sn k) in
      if sn > prev then Hashtbl.replace t.delivered_sn k sn
  | _ -> ());
  match p_str "msg" e with
  | Some msg -> (
      match Hashtbl.find_opt t.inflight msg with
      | Some t0 ->
          Hashtbl.remove t.inflight msg;
          t.unique_delivered <- t.unique_delivered + 1;
          Obs.Metrics.observe t.metrics "soak.latency_ms"
            (Obs.Metrics.now_ms () -. t0)
      | None -> ())
  | None -> ()

let on_trace_line t line =
  Obs.Metrics.incr t.metrics "soak.trace_events";
  write_merged t line;
  match Obs.Trace.event_of_string line with
  | Error _ -> Obs.Metrics.incr t.metrics "soak.trace_parse_errors"
  | Ok e ->
      feed_monitor t e;
      if
        String.equal e.Obs.Trace.cls "deliver"
        && String.equal e.Obs.Trace.component "vs.engine"
      then on_deliver t e

(* The hub's own progress points: the delivered counter is the soak's
   liveness signal, watched online by the monotone monitor rule. *)
let note_progress t =
  let e =
    {
      Obs.Trace.seq = t.hub_seq;
      kind = Obs.Trace.Point;
      component = "live.soak";
      cls = "progress";
      span = None;
      payload = [ ("delivered", Obs.Trace.Int t.delivered_total) ];
    }
  in
  t.hub_seq <- t.hub_seq + 1;
  write_merged t (Obs.Trace.event_to_string e);
  feed_monitor t e

(* ---------------- membership ---------------- *)

let recompute_primary t =
  let connected = connected t in
  let candidates =
    Proc.Map.fold
      (fun p v acc ->
        if Proc.Set.mem p connected then
          if List.exists (View.equal v) acc then acc else v :: acc
        else acc)
      t.member_view []
  in
  let best =
    List.fold_left
      (fun acc v ->
        match acc with
        | None -> Some v
        | Some b ->
            let cv = Proc.Set.cardinal (View.set v)
            and cb = Proc.Set.cardinal (View.set b) in
            if cv > cb || (cv = cb && Gid.lt (View.id v) (View.id b)) then
              Some v
            else acc)
      None candidates
  in
  if not (Option.equal View.equal best t.primary) then begin
    (* messages in flight under the old primary may be stranded by the
       view change (VS semantics: undelivered traffic of a superseded
       view is lost); forget them so drain accounting tracks the new
       view *)
    let lost = Hashtbl.length t.inflight in
    if lost > 0 then
      Obs.Metrics.incr ~by:lost t.metrics "soak.lost_on_view_change";
    Hashtbl.reset t.inflight;
    t.primary <- best
  end

(* Issue fresh views wherever the connected components and the views
   the members currently hold disagree.  The View_note enters each
   member's send queue here, before any packet routed later in the same
   poll — per-connection FIFO then guarantees a (re)joined endpoint
   installs the view before traffic of that view reaches it. *)
let reissue t =
  let connected = connected t in
  let comps =
    match t.partition with
    | None -> if Proc.Set.is_empty connected then [] else [ connected ]
    | Some part ->
        let of_part =
          List.filter_map
            (fun c ->
              let s = Proc.Set.inter c connected in
              if Proc.Set.is_empty s then None else Some s)
            (Sim.Partition.components part)
        in
        let stray = Proc.Set.diff connected (Sim.Partition.alive part) in
        Proc.Set.fold
          (fun p acc -> Proc.Set.singleton p :: acc)
          stray of_part
  in
  List.iter
    (fun s ->
      let settled =
        match Proc.Set.min_elt_opt s with
        | None -> true
        | Some p0 -> (
            match Proc.Map.find_opt p0 t.member_view with
            | Some v when Proc.Set.equal (View.set v) s ->
                Proc.Set.for_all
                  (fun p ->
                    match Proc.Map.find_opt p t.member_view with
                    | Some v' -> View.equal v v'
                    | None -> false)
                  s
            | _ -> false)
      in
      if not settled then begin
        let gid = t.next_gid in
        t.next_gid <- Gid.succ t.next_gid;
        let v = View.make ~id:gid ~set:s in
        Proc.Set.iter
          (fun p ->
            (match List.assoc_opt p t.conns with
            | Some c -> Conn.send c (Wire.View_note v)
            | None -> ());
            t.member_view <- Proc.Map.add p v t.member_view)
          s;
        Obs.Metrics.incr t.metrics "soak.views_issued"
      end)
    comps;
  recompute_primary t

(* ---------------- routing ---------------- *)

let deliver_copies t copies ~dst =
  List.iter
    (fun frame ->
      match List.assoc_opt dst t.conns with
      | Some c when Conn.alive c -> Conn.send c frame
      | _ -> Obs.Metrics.incr t.metrics "soak.undeliverable")
    copies

let release_stash t =
  List.iter
    (fun (_src, dst, frame) -> deliver_copies t [ frame ] ~dst)
    (Proxy.flush t.proxy)

let on_frame t src frame =
  match frame with
  | Wire.Pkt { dst; pkt; _ } ->
      (* trust the connection's identity, not the frame's src field *)
      let frame = Wire.Pkt { src; dst; pkt } in
      deliver_copies t (Proxy.route t.proxy ~src ~dst frame) ~dst
  | Wire.Trace_line line -> on_trace_line t line
  | Wire.Snapshot { proc; views } ->
      t.snaps <- (proc, views) :: List.remove_assoc proc t.snaps
  | Wire.Hello _ | Wire.View_note _ | Wire.Client _ | Wire.Snapshot_req
  | Wire.Shutdown ->
      ()

let register t conn p =
  (* a reconnecting endpoint replaces its dead predecessor *)
  (match List.assoc_opt p t.conns with
  | Some old -> Conn.close old
  | None -> ());
  t.conns <- (p, conn) :: List.remove_assoc p t.conns;
  t.member_view <- Proc.Map.remove p t.member_view;
  Obs.Metrics.incr t.metrics "soak.connects";
  reissue t

(* The first frame must be a Hello; frames decoded after it in the same
   read go to [on_frame] as the registered endpoint's. *)
let process_anon t conn =
  let owner = ref None in
  Conn.recv conn (fun frame ->
      match (!owner, frame) with
      | Some p, _ -> on_frame t p frame
      | None, Wire.Hello { proc } ->
          owner := Some proc;
          t.anon <- List.filter (fun c -> c != conn) t.anon;
          register t conn proc
      | None, _ ->
          t.anon <- List.filter (fun c -> c != conn) t.anon;
          Conn.close conn)

let accept_loop t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        t.anon <- Conn.create fd :: t.anon;
        go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  go ()

let reap t =
  let dead, alive = List.partition (fun (_, c) -> not (Conn.alive c)) t.conns in
  if dead <> [] then begin
    List.iter
      (fun (p, c) ->
        Conn.close c;
        t.member_view <- Proc.Map.remove p t.member_view;
        Obs.Metrics.incr t.metrics "soak.disconnects")
      dead;
    t.conns <- alive;
    reissue t
  end;
  let dead_anon, anon = List.partition (fun c -> not (Conn.alive c)) t.anon in
  List.iter Conn.close dead_anon;
  t.anon <- anon

let poll t ~timeout =
  List.iter (fun (_, c) -> Conn.flush c) t.conns;
  let rds =
    t.listen_fd
    :: (List.map Conn.fd t.anon @ List.map (fun (_, c) -> Conn.fd c) t.conns)
  in
  let wrs =
    List.filter_map
      (fun (_, c) ->
        if Conn.alive c && Conn.pending_out c > 0 then Some (Conn.fd c)
        else None)
      t.conns
  in
  (match Unix.select rds wrs [] timeout with
  | rd, wr, _ ->
      if List.mem t.listen_fd rd then accept_loop t;
      List.iter
        (fun conn -> if List.mem (Conn.fd conn) rd then process_anon t conn)
        t.anon;
      List.iter
        (fun (p, conn) ->
          if List.mem (Conn.fd conn) rd then Conn.recv conn (on_frame t p))
        t.conns;
      List.iter
        (fun (_, c) -> if List.mem (Conn.fd c) wr then Conn.flush c)
        t.conns
  | exception Unix.Unix_error (EINTR, _, _) -> ());
  if not t.stormy then release_stash t;
  reap t;
  let n = now () in
  if n -. t.last_note >= 0.25 then begin
    t.last_note <- n;
    note_progress t;
    match t.merged_oc with Some oc -> flush oc | None -> ()
  end

(* ---------------- control ---------------- *)

let set_phase t = function
  | Some ph ->
      Proxy.set_phase t.proxy ph;
      t.partition <- Some ph.Sim.Faults.partition;
      t.stormy <- not (Sim.Faults.is_calm ph.Sim.Faults.intensity);
      release_stash t;
      reissue t
  | None ->
      Proxy.clear t.proxy;
      t.partition <- None;
      t.stormy <- false;
      release_stash t;
      reissue t

let inject t payload =
  match t.primary with
  | None -> false
  | Some v -> (
      let members = Proc.Set.elements (View.set v) in
      let n = List.length members in
      let target = List.nth members (t.rr mod n) in
      t.rr <- t.rr + 1;
      match List.assoc_opt target t.conns with
      | Some c when Conn.alive c ->
          Conn.send c (Wire.Client payload);
          Hashtbl.replace t.inflight payload (Obs.Metrics.now_ms ());
          let g = View.id v in
          t.injected <-
            Gid.Map.add g (injected_in t g + 1) t.injected;
          Obs.Metrics.incr t.metrics "soak.injected";
          true
      | _ -> false)

let availability_sample t =
  let total = Proc.Set.cardinal t.cfg.universe in
  let avail =
    if total = 0 then 1.0
    else float_of_int (Proc.Set.cardinal (connected t)) /. float_of_int total
  in
  Obs.Metrics.observe t.metrics "soak.availability" avail;
  avail

let request_snapshots t =
  t.snaps <- [];
  List.iter
    (fun (_, c) -> if Conn.alive c then Conn.send c Wire.Snapshot_req)
    t.conns

let shutdown t =
  List.iter
    (fun (_, c) -> if Conn.alive c then Conn.send c Wire.Shutdown)
    t.conns;
  let deadline = now () +. 2.0 in
  let rec drain_out () =
    let pending =
      List.exists (fun (_, c) -> Conn.alive c && Conn.pending_out c > 0) t.conns
    in
    if pending && now () < deadline then begin
      List.iter (fun (_, c) -> Conn.flush c) t.conns;
      (try ignore (Unix.select [] [] [] 0.01)
       with Unix.Unix_error (EINTR, _, _) -> ());
      drain_out ()
    end
  in
  drain_out ();
  List.iter (fun (_, c) -> Conn.close c) t.conns;
  List.iter Conn.close t.anon;
  t.conns <- [];
  t.anon <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.cfg.sock_path with Unix.Unix_error _ | Sys_error _ -> ());
  match t.merged_oc with Some oc -> close_out_noerr oc | None -> ()
