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
  mutable traces : string Proc.Map.t;  (* trace file named in Hello *)
  proxy : Proxy.t;
  monitor : Obs.Monitor.t;
  prefix : Obs.Monitor.Prefix.t;
  metrics : Obs.Metrics.t;
  merged_oc : out_channel option;
  mutable next_gid : Gid.t;
  mutable member_view : View.t Proc.Map.t;
  mutable primary : View.t option;
  mutable partition : Sim.Partition.t option;
  mutable stormy : bool;
  inflight : (string, float) Hashtbl.t;  (* payload -> inject time (ms) *)
  mutable injected : int Gid.Map.t;
  delivered_sn : (Proc.t * Gid.t, int) Hashtbl.t;  (* max sn *)
  mutable delivered_total : int;
  mutable unique_delivered : int;
  mutable snaps : (Proc.t * (Gid.t * (string * Proc.t) list) list) list;
  parts : (Proc.t, (Gid.t * string list) list) Hashtbl.t;
      (* snapshots being received: per endpoint, the image pieces of its
         views so far, newest view and newest piece first *)
  round : (Gid.t, (string * (string * Proc.t) list) list) Hashtbl.t;
      (* this snapshot round's distinct images per view, decoded *)
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
    traces = Proc.Map.empty;
    proxy = Proxy.create ~metrics ~seed:cfg.seed ();
    monitor =
      Obs.Monitor.create
        [ Obs.Monitor.monotone ~component:"live.soak" ~key:"delivered" () ];
    prefix = Obs.Monitor.Prefix.create ();
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
    parts = Hashtbl.create 8;
    round = Hashtbl.create 8;
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
  Option.value ~default:0 (Hashtbl.find_opt t.delivered_sn (proc, gid))

(* ---------------- checks and the merged trace ---------------- *)

let write_merged t line =
  match t.merged_oc with
  | None -> ()
  | Some oc ->
      output_string oc line;
      output_char oc '\n'

(* An endpoint's trace file, appended to the merged trace when its
   connection ends — the endpoint closes the file before its socket, and
   a SIGKILL'd one writes no more — so the merged trace holds every
   endpoint event without the hub parsing any.  Whole lines only, in
   fixed-size chunks: a torn last line stays out. *)
let append_trace t path =
  match t.merged_oc with
  | None -> ()
  | Some oc -> (
      match open_in_bin path with
      | exception Sys_error _ -> ()
      | ic ->
          let buf = Bytes.create 65536 and carry = Buffer.create 256 in
          let rec copy () =
            let n = input ic buf 0 (Bytes.length buf) in
            if n > 0 then begin
              (match Bytes.rindex_from_opt buf (n - 1) '\n' with
              | None -> Buffer.add_subbytes carry buf 0 n
              | Some i ->
                  Buffer.output_buffer oc carry;
                  Buffer.clear carry;
                  output oc buf 0 (i + 1);
                  Buffer.add_subbytes carry buf (i + 1) (n - i - 1));
              copy ()
            end
          in
          copy ();
          close_in ic)

(* A connection that ended: close it and merge its endpoint's trace. *)
let finish t (p, c) =
  Conn.close c;
  Option.iter (append_trace t) (Proc.Map.find_opt p t.traces);
  t.traces <- Proc.Map.remove p t.traces

let latch t v =
  if Obs.Monitor.record t.monitor v then
    Obs.Metrics.incr t.metrics "soak.monitor_violations"

let feed_monitor t e =
  let fresh = Obs.Monitor.feed t.monitor e in
  if fresh <> [] then
    Obs.Metrics.incr ~by:(List.length fresh) t.metrics
      "soak.monitor_violations"

(* One delivery [p] reported: drain and throughput accounting, the
   latency sample of its first delivery, and the cross-endpoint prefix
   check (the rule the endpoints cannot run locally). *)
let on_record t p (d : Wire.delivery) =
  t.delivered_total <- t.delivered_total + 1;
  Obs.Metrics.incr t.metrics "soak.delivered";
  let k = (p, d.gid) in
  let prev = Option.value ~default:0 (Hashtbl.find_opt t.delivered_sn k) in
  if d.sn > prev then Hashtbl.replace t.delivered_sn k d.sn;
  (match Hashtbl.find_opt t.inflight d.msg with
  | Some t0 ->
      Hashtbl.remove t.inflight d.msg;
      t.unique_delivered <- t.unique_delivered + 1;
      Obs.Metrics.observe t.metrics "soak.latency_ms"
        (Obs.Metrics.now_ms () -. t0)
  | None -> ());
  match
    Obs.Monitor.Prefix.check t.prefix ~gid:(Gid.to_string d.gid) ~sn:d.sn
      ~origin:(Proc.to_string d.origin) ~msg:d.msg
  with
  | None -> ()
  | Some reason ->
      latch t
        {
          Obs.Monitor.rule = Obs.Monitor.Prefix.name;
          at_seq = t.delivered_total;
          reason;
        }

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

(* A Pkt image to [dst]'s connection, as it is; a dead or absent
   destination counts as undeliverable.  The scan allocates nothing. *)
let rec forward t ~dst b pos len = function
  | [] -> Obs.Metrics.incr t.metrics "soak.undeliverable"
  | (p, c) :: rest ->
      if not (Proc.equal p dst) then forward t ~dst b pos len rest
      else if Conn.alive c then Conn.send_image c b ~pos ~len
      else Obs.Metrics.incr t.metrics "soak.undeliverable"

let route t ~src ~dst b pos len =
  match Proxy.route t.proxy ~src ~dst b ~pos ~len with
  | Proxy.Drop -> ()
  | Proxy.Once -> forward t ~dst b pos len t.conns
  | Proxy.Twice ->
      forward t ~dst b pos len t.conns;
      forward t ~dst b pos len t.conns
  | Proxy.Once_then held ->
      forward t ~dst b pos len t.conns;
      forward t ~dst held 0 (Bytes.length held) t.conns

let release_stash t =
  List.iter
    (fun (_src, dst, image) ->
      forward t ~dst image 0 (Bytes.length image) t.conns)
    (Proxy.flush t.proxy)

(* A snapshot arrives as its views' image pieces, then a closing frame;
   only a complete one is published.  A view's pieces are kept newest
   first and joined once, when the snapshot closes, so assembly is
   linear in the snapshot's size. *)
let on_snapshot_part t p gid piece =
  let views = Option.value ~default:[] (Hashtbl.find_opt t.parts p) in
  Hashtbl.replace t.parts p
    (match views with
    | (g, pieces) :: older when Gid.equal g gid -> (g, piece :: pieces) :: older
    | _ -> (gid, [ piece ]) :: views)

(* Endpoints that agree send byte-identical images of a view, and a
   view's prefix is a pure function of its image: within a round, each
   distinct image is decoded once and its prefix shared. *)
let decode_view t g image =
  let seen = Option.value ~default:[] (Hashtbl.find_opt t.round g) in
  match List.find_opt (fun (i, _) -> String.equal i image) seen with
  | Some (_, prefix) -> Ok prefix
  | None ->
      Result.map
        (fun prefix ->
          Hashtbl.replace t.round g ((image, prefix) :: seen);
          prefix)
        (Wire.prefix_of_image image)

let on_snapshot_done t p n =
  let views = Option.value ~default:[] (Hashtbl.find_opt t.parts p) in
  Hashtbl.remove t.parts p;
  let rec decode acc = function
    | [] -> Ok acc
    | (g, pieces) :: older ->
        Result.bind
          (decode_view t g (String.concat "" (List.rev pieces)))
          (fun prefix -> decode ((g, prefix) :: acc) older)
  in
  match decode [] views with
  | Ok decoded when List.length decoded = n ->
      t.snaps <- (p, decoded) :: List.remove_assoc p t.snaps
  | Ok _ | Error _ -> Obs.Metrics.incr t.metrics "soak.bad_snapshots"

(* The frames [p]'s connection sent, decoded. *)
let on_frame t p frame =
  match frame with
  | Wire.Pkt { dst; pkt; _ } ->
      (* trust the connection's identity, not the frame's src field: a
         forged src is rewritten, then routed like any packet *)
      let image = Wire.encode (Wire.Pkt { src = p; dst; pkt }) in
      route t ~src:p ~dst image 0 (Bytes.length image)
  | Wire.Delivered { events; records; _ } ->
      (* as for Pkt: the records are the connection's, whatever the
         frame says *)
      Obs.Metrics.incr ~by:events t.metrics "soak.trace_events";
      List.iter (on_record t p) records
  | Wire.Violation v -> latch t v
  | Wire.Snapshot_part { gid; piece } -> on_snapshot_part t p gid piece
  | Wire.Snapshot_done { views } -> on_snapshot_done t p views
  | Wire.Hello _ | Wire.View_note _ | Wire.Client _ | Wire.Trace_line _
  | Wire.Snapshot_req | Wire.Shutdown ->
      ()

(* Every frame image [p]'s connection sent.  A Pkt whose src is [p] is
   verified in place and routed as the bytes that arrived; anything else
   is decoded, and a frame that fails to decode — a bit flipped in a
   Pkt included — kills the sender's connection. *)
let on_image t p conn b pos len =
  let dst = Wire.pkt_dst ~src:p b ~pos ~len in
  if dst >= 0 then route t ~src:p ~dst b pos len
  else
    match Wire.decode_sub b ~pos ~len with
    | Ok frame -> on_frame t p frame
    | Error e -> Conn.fail conn ("framing: " ^ e)

let register t conn p trace =
  (* A reconnecting endpoint replaces its dead predecessor.  Its trace
     file is not merged here: the successor reopened (truncated) it
     before saying Hello.  [bin/soak], the benchmark fleet and
     [test_live_crash] leave seconds between a kill and its respawn,
     so [reap] has merged the predecessor's file long before. *)
  (match List.assoc_opt p t.conns with
  | Some old -> Conn.close old
  | None -> ());
  t.conns <- (p, conn) :: List.remove_assoc p t.conns;
  Hashtbl.remove t.parts p;
  t.traces <- Proc.Map.update p (fun _ -> trace) t.traces;
  t.member_view <- Proc.Map.remove p t.member_view;
  Obs.Metrics.incr t.metrics "soak.connects";
  reissue t

(* The first frame must be a Hello; frames after it in the same read go
   to [on_image] as the registered endpoint's. *)
let process_anon t conn =
  let owner = ref None in
  Conn.recv_images conn (fun b pos len ->
      match !owner with
      | Some p -> on_image t p conn b pos len
      | None -> (
          match Wire.decode_sub b ~pos ~len with
          | Ok (Wire.Hello { proc; trace }) ->
              owner := Some proc;
              t.anon <- List.filter (fun c -> c != conn) t.anon;
              register t conn proc trace
          | Ok _ ->
              t.anon <- List.filter (fun c -> c != conn) t.anon;
              Conn.close conn
          | Error e -> Conn.fail conn ("framing: " ^ e)))

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
      (fun ((p, _) as ended) ->
        finish t ended;
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
          if List.mem (Conn.fd conn) rd then
            Conn.recv_images conn (on_image t p conn))
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
  Hashtbl.reset t.round;
  List.iter
    (fun (_, c) -> if Conn.alive c then Conn.send c Wire.Snapshot_req)
    t.conns

(* Shutdown, then wait (bounded) for every endpoint's EOF: its last
   report is counted, and its trace file is final when merged.  Only
   reports are read; traffic between endpoints that are going down is
   not routed. *)
let shutdown t =
  List.iter
    (fun (_, c) -> if Conn.alive c then Conn.send c Wire.Shutdown)
    t.conns;
  let deadline = now () +. 3.0 in
  let rec wait () =
    let ended, open_ = List.partition (fun (_, c) -> not (Conn.alive c)) t.conns in
    List.iter (finish t) ended;
    t.conns <- open_;
    if open_ <> [] && now () < deadline then begin
      List.iter (fun (_, c) -> Conn.flush c) open_;
      (match Unix.select (List.map (fun (_, c) -> Conn.fd c) open_) [] [] 0.01 with
      | rd, _, _ ->
          List.iter
            (fun (p, c) ->
              if List.mem (Conn.fd c) rd then
                Conn.recv c (function
                  | (Wire.Delivered _ | Wire.Violation _) as f -> on_frame t p f
                  | _ -> ()))
            open_
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      wait ()
    end
  in
  wait ();
  (* stragglers past the deadline: merge whatever whole lines they left *)
  List.iter (finish t) t.conns;
  List.iter Conn.close t.anon;
  t.conns <- [];
  t.anon <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.cfg.sock_path with Unix.Unix_error _ | Sys_error _ -> ());
  match t.merged_oc with Some oc -> close_out_noerr oc | None -> ()
