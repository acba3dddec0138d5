(* dvsd: one live DVS endpoint daemon.

   Connects to a hub socket (bin/soak or any Live.Hub), names itself and
   its --trace file, and services its VS engine over real packet traffic
   until the hub sends Shutdown or dies.  It checks its own events at
   the source (unique sequencing, contiguous delivery), ships a
   Violation frame if either latches, and reports each loop turn's
   deliveries to the hub as one binary Delivered frame.  The --trace
   file is flushed once per turn, just before the socket, and closed
   before the socket at exit; the hub appends it to its merged trace
   when the connection ends, and a SIGKILL'd daemon leaves a decodable
   prefix behind.

   The heap is mostly protocol state that only grows between view
   changes (receive buffer, sequencer and sender logs), and the major
   GC's default pacing (space_overhead 120) lets the heap run up to
   about twice that state.  space_overhead 40 trades some endpoint GC
   CPU for peak memory: on the E20 storm schedule, endpoint peak RSS
   fell by about a quarter. *)

let () =
  Gc.set { (Gc.get ()) with space_overhead = 40 };
  let me = ref 0 in
  let sock = ref "" in
  let trace = ref "" in
  let rtx_ms = ref 200. in
  let specs =
    [
      ("--proc", Arg.Set_int me, "N  endpoint (processor) id");
      ("--connect", Arg.Set_string sock, "PATH  hub Unix-domain socket");
      ("--trace", Arg.Set_string trace, "FILE  local crash-safe JSONL trace");
      ( "--retransmit-ms",
        Arg.Set_float rtx_ms,
        "MS  retransmission tick (default 200)" );
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "dvsd --proc N --connect PATH [--trace FILE] [--retransmit-ms MS]";
  if !sock = "" then begin
    prerr_endline "dvsd: --connect is required";
    exit 2
  end;
  match
    Live.Endpoint.run
      {
        Live.Endpoint.me = !me;
        sock_path = !sock;
        trace_path = (if !trace = "" then None else Some !trace);
        retransmit_s = !rtx_ms /. 1000.;
      }
  with
  | () -> ()
  | exception Unix.Unix_error (e, fn, _) ->
      Printf.eprintf "dvsd %d: %s: %s\n%!" !me fn (Unix.error_message e);
      exit 1
