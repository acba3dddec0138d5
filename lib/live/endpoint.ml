open Prelude
module E = Vs_impl.Engine.Make (Msg_intf.String_msg)
module P = Vs_impl.Packet

type config = {
  me : Proc.t;
  sock_path : string;
  trace_path : string option;
  retransmit_s : float;
}

(* Drain every enabled engine output to a fixpoint.  Each inner loop is
   individually monotone (queues shrink, counters advance), so the
   fixpoint terminates; re-running the outer loop picks up outputs a
   previous one enabled (a delivery enables an ack, a forward enables
   nothing locally but a sequenced rebroadcast does at the sequencer).
   [on_deliver] sees each client delivery as a value, before the engine
   records it. *)
let drain ~sink ~send_pkt ~on_deliver st =
  let continue = ref true in
  while !continue do
    continue := false;
    let rec fwds () =
      match E.fwd_send !st with
      | Some (dst, pkt) ->
          send_pkt dst pkt;
          st := E.sent_fwd !st;
          continue := true;
          fwds ()
      | None -> ()
    in
    fwds ();
    let rec bcasts () =
      match E.bcast_sends !st with
      | [] -> ()
      | sends ->
          List.iter
            (fun (dst, pkt) ->
              send_pkt dst pkt;
              match pkt with
              | P.Seq { gid; _ } -> st := E.sent_bcast !st ~dst ~gid
              | _ -> ())
            sends;
          continue := true;
          bcasts ()
    in
    bcasts ();
    List.iter
      (fun (dst, pkt) ->
        send_pkt dst pkt;
        match pkt with
        | P.Ack { gid; upto } ->
            st := E.sent_ack !st ~gid ~upto;
            continue := true
        | _ -> ())
      (E.ack_sends !st);
    List.iter
      (fun (dst, pkt) ->
        send_pkt dst pkt;
        match pkt with
        | P.Stable { gid; upto } ->
            st := E.sent_stable !st ~dst ~gid ~upto;
            continue := true
        | _ -> ())
      (E.stable_sends !st);
    let rec deliveries () =
      match (E.deliverable !st, E.cur_id !st) with
      | Some (origin, msg), Some gid ->
          on_deliver { Wire.gid; sn = E.next_deliver_of !st gid; origin; msg };
          st := E.delivered ~sink !st;
          continue := true;
          deliveries ()
      | _ -> ()
    in
    deliveries ();
    (* safe indications advance silently: the monitors key on sequenced
       and deliver events, and tracing safes too would add ~50% volume *)
    while E.safe_ready !st <> None do
      st := E.safed !st;
      continue := true
    done
  done

(* The image of the delivered prefix of every view [st] holds, oldest
   view first. *)
let images st =
  Gid.Map.fold
    (fun g _ acc ->
      if E.next_deliver_of st g = 1 then acc
      else (g, Wire.prefix_image_iter (E.iter_delivered st g)) :: acc)
    st.E.views_seen []
  |> List.rev


let now () = Unix.gettimeofday ()

(* Stop retransmitting into a congested pipe: re-offers are idempotent,
   so deferring them costs latency, not correctness. *)
let rtx_backpressure = 1 lsl 20

let loop ~trace_path ~trace_oc ~me ~retransmit_s conn fd =
  Conn.send conn (Wire.Hello { proc = me; trace = trace_path });
  (* Boot in a self-only v0: inert (the hub injects clients only into
     hub-issued views, whose ids start at 1) until the first View_note. *)
  let st =
    ref (E.initial ~drop_stale:true ~p0:(Proc.Set.singleton me) me)
  in
  (* At each view change the superseded views' state is retired from
     the engine; only their delivered prefixes, which snapshots report,
     are kept, as images: ~12 bytes a delivery where the engine held
     ~170 (its buffer entry and its share of the sequencer and sender
     logs). *)
  let archive = ref [] in
  let install v =
    let st' = E.on_newview !st v in
    let cur = View.id v in
    archive := !archive @ List.filter (fun (g, _) -> Gid.lt g cur) (images st');
    st := E.retire st'
  in
  (* Every event goes to the trace file and through the rules local to
     this endpoint; a latch ships one Violation frame. *)
  let local = Obs.Monitor.create (Obs.Monitor.local ()) in
  let events = ref 0 and delivered = ref [] in
  let sink =
    Obs.Trace.callback (fun e ->
        incr events;
        (match trace_oc with
        | Some oc ->
            output_string oc (Obs.Trace.event_to_string e);
            output_char oc '\n'
        | None -> ());
        List.iter
          (fun v -> Conn.send conn (Wire.Violation v))
          (Obs.Monitor.feed local e))
  in
  (* One report and one flush per loop turn: the turn's deliveries, then
     the trace file, then the socket, so the file always holds every
     event the hub has been told of.  A SIGKILL leaves a prefix, torn at
     most in its last line (Trace.read_jsonl_prefix recovers it). *)
  let flush_out () =
    if !events > 0 then begin
      Conn.send conn
        (Wire.Delivered
           { proc = me; events = !events; records = List.rev !delivered });
      events := 0;
      delivered := []
    end;
    Option.iter flush trace_oc;
    Conn.flush conn
  in
  let send_pkt dst pkt = Conn.send conn (Wire.Pkt { src = me; dst; pkt }) in
  let on_deliver d = delivered := d :: !delivered in
  let drain () = drain ~sink ~send_pkt ~on_deliver st in
  let last_rtx = ref (now ()) in
  let running = ref true in
  while !running && Conn.alive conn do
    flush_out ();
    let wr = if Conn.pending_out conn > 0 then [ fd ] else [] in
    let timeout = max 0.005 (retransmit_s /. 4.) in
    (match Unix.select [ fd ] wr [] timeout with
    | rd, w, _ ->
        if w <> [] then flush_out ();
        if rd <> [] then begin
          Conn.recv conn (function
            | Wire.View_note v -> install v
            | Wire.Pkt { src; pkt; _ } -> st := E.on_packet ~sink !st ~src pkt
            | Wire.Client m -> st := E.on_gpsnd !st m
            | Wire.Snapshot_req ->
                Wire.snapshot (!archive @ images !st) (Conn.send conn)
            | Wire.Shutdown -> running := false
            | Wire.Hello _ | Wire.Trace_line _ | Wire.Snapshot_part _
            | Wire.Snapshot_done _ | Wire.Delivered _ | Wire.Violation _ ->
                ());
          drain ()
        end
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    if
      !running
      && now () -. !last_rtx >= retransmit_s
      && Conn.pending_out conn < rtx_backpressure
    then begin
      last_rtx := now ();
      List.iter (fun (dst, pkt) -> send_pkt dst pkt) (E.retransmit_sends !st);
      drain ()
    end
  done;
  (* best-effort flush of the tail (acks, the last report) *)
  flush_out ();
  let deadline = now () +. 1.0 in
  while Conn.alive conn && Conn.pending_out conn > 0 && now () < deadline do
    (match Unix.select [] [ fd ] [] 0.05 with
    | _, w, _ -> if w <> [] then flush_out ()
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    flush_out ()
  done;
  (* the file is final before the hub sees EOF: the hub appends it to
     its merged trace when the connection ends *)
  Option.iter close_out_noerr trace_oc;
  Conn.close conn

let serve ?trace_path ~me ~retransmit_s fd =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let conn = Conn.create fd in
  let trace_oc = Option.map open_out trace_path in
  Fun.protect
    ~finally:(fun () -> Option.iter close_out_noerr trace_oc)
    (fun () -> loop ~trace_path ~trace_oc ~me ~retransmit_s conn fd)

let connect sock_path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_UNIX sock_path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let run cfg =
  serve ?trace_path:cfg.trace_path ~me:cfg.me ~retransmit_s:cfg.retransmit_s
    (connect cfg.sock_path)

let spawn_domain cfg = Domain.spawn (fun () -> run cfg)
