(* Replay kernels: after a traced live run, the trace-path operations
   timed one by one over that run's own merged trace, outside the
   measured window — parse a JSONL line ([Obs.Trace.event_of_string]),
   render it back ([event_to_string]), feed it to a fresh standard
   [Obs.Monitor], and encode/decode it as a [Trace_line] wire frame.
   Lines are processed in chunks so memory stays flat whatever the
   trace's length; each kernel's time is reported per line. *)

type t = {
  parse_ns : float;
  render_ns : float;
  feed_ns : float;
  encode_ns : float;
  decode_ns : float;
  frame_bytes : float;  (** mean encoded frame size *)
  sequenced : int;  (** "sequenced" events of vs.engine *)
  delivered : int;  (** "deliver" events of vs.engine *)
  monitor_clean : bool;
}

let chunk = 4096

let run path =
  let monitor = Obs.Monitor.create (Obs.Monitor.standard ()) in
  let ns = Array.make 5 0 in
  let lines = ref 0 and bytes = ref 0 and sequenced = ref 0 and delivered = ref 0 in
  let timed i f =
    let t0 = Tracer.now () in
    let r = f () in
    ns.(i) <- ns.(i) + (Tracer.now () - t0);
    r
  in
  In_channel.with_open_bin path (fun ic ->
      let rec read acc k =
        if k = 0 then List.rev acc
        else
          match In_channel.input_line ic with
          | Some "" -> read acc k
          | Some l -> read (l :: acc) (k - 1)
          | None -> List.rev acc
      in
      let rec go () =
        match Array.of_list (read [] chunk) with
        | [||] -> ()
        | ls ->
            lines := !lines + Array.length ls;
            let evs = timed 0 (fun () -> Array.map Obs.Trace.event_of_string ls) in
            let evs = Array.of_list (List.filter_map Result.to_option (Array.to_list evs)) in
            timed 1 (fun () -> Array.iter (fun e -> ignore (Obs.Trace.event_to_string e)) evs);
            timed 2 (fun () -> Array.iter (fun e -> ignore (Obs.Monitor.feed monitor e)) evs);
            let frames =
              timed 3 (fun () ->
                  Array.map (fun l -> Live.Wire.encode (Live.Wire.Trace_line l)) ls)
            in
            timed 4 (fun () -> Array.iter (fun b -> ignore (Live.Wire.decode b)) frames);
            Array.iter (fun b -> bytes := !bytes + Bytes.length b) frames;
            Array.iter
              (fun (e : Obs.Trace.event) ->
                if e.component = "vs.engine" then
                  if e.cls = "sequenced" then incr sequenced
                  else if e.cls = "deliver" then incr delivered)
              evs;
            go ()
      in
      go ());
  let per i = float_of_int ns.(i) /. float_of_int (max 1 !lines) in
  {
    parse_ns = per 0;
    render_ns = per 1;
    feed_ns = per 2;
    encode_ns = per 3;
    decode_ns = per 4;
    frame_bytes = float_of_int !bytes /. float_of_int (max 1 !lines);
    sequenced = !sequenced;
    delivered = !delivered;
    monitor_clean = Obs.Monitor.ok monitor;
  }
