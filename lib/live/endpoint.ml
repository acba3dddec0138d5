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
   nothing locally but a sequenced rebroadcast does at the sequencer). *)
let drain ~sink ~send_pkt st =
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
    while E.deliverable !st <> None do
      st := E.delivered ~sink !st;
      continue := true
    done;
    (* safe indications advance silently: the monitors key on sequenced
       and deliver events, and tracing safes too would add ~50% volume *)
    while E.safe_ready !st <> None do
      st := E.safed !st;
      continue := true
    done
  done

let snapshot_of st =
  let views =
    Gid.Map.fold
      (fun g _ acc ->
        match E.delivered_prefix st g with
        | [] -> acc
        | prefix -> (g, prefix) :: acc)
      st.E.views_seen []
  in
  Wire.Snapshot { proc = st.E.me; views = List.rev views }

let now () = Unix.gettimeofday ()

(* Stop retransmitting into a congested pipe: re-offers are idempotent,
   so deferring them costs latency, not correctness. *)
let rtx_backpressure = 1 lsl 20

let serve ?trace_oc ~me ~retransmit_s fd =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let conn = Conn.create fd in
  Conn.send conn (Wire.Hello { proc = me });
  (* Boot in a self-only v0: inert (the hub injects clients only into
     hub-issued views, whose ids start at 1) until the first View_note. *)
  let st =
    ref (E.initial ~drop_stale:true ~p0:(Proc.Set.singleton me) me)
  in
  let sink =
    Obs.Trace.callback (fun e ->
        let line = Obs.Trace.event_to_string e in
        (match trace_oc with
        | Some oc ->
            output_string oc line;
            output_char oc '\n'
        | None -> ());
        Conn.send conn (Wire.Trace_line line))
  in
  (* One flush per loop turn: the trace file first, then the socket, so
     the file always holds every event the hub can have received.  A
     SIGKILL leaves a prefix, torn at most in its last line
     (Trace.read_jsonl_prefix recovers it). *)
  let flush_out () =
    Option.iter flush trace_oc;
    Conn.flush conn
  in
  let send_pkt dst pkt = Conn.send conn (Wire.Pkt { src = me; dst; pkt }) in
  let drain () = drain ~sink ~send_pkt st in
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
            | Wire.View_note v -> st := E.on_newview !st v
            | Wire.Pkt { src; pkt; _ } -> st := E.on_packet ~sink !st ~src pkt
            | Wire.Client m -> st := E.on_gpsnd !st m
            | Wire.Snapshot_req -> Conn.send conn (snapshot_of !st)
            | Wire.Shutdown -> running := false
            | Wire.Hello _ | Wire.Trace_line _ | Wire.Snapshot _ -> ());
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
  (* best-effort flush of the tail (acks, trace lines) *)
  let deadline = now () +. 1.0 in
  while Conn.alive conn && Conn.pending_out conn > 0 && now () < deadline do
    (match Unix.select [] [ fd ] [] 0.05 with
    | _, w, _ -> if w <> [] then flush_out ()
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    flush_out ()
  done;
  Conn.close conn

let connect sock_path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_UNIX sock_path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let run cfg =
  let fd = connect cfg.sock_path in
  let trace_oc = Option.map open_out cfg.trace_path in
  Fun.protect
    ~finally:(fun () ->
      match trace_oc with Some oc -> close_out_noerr oc | None -> ())
    (fun () ->
      serve ?trace_oc ~me:cfg.me ~retransmit_s:cfg.retransmit_s fd)

let spawn_domain cfg = Domain.spawn (fun () -> run cfg)
