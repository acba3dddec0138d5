(* dvsd: one live DVS endpoint daemon.

   Connects to a hub socket (bin/soak or any Live.Hub), names itself,
   and services its VS engine over real packet traffic until the hub
   sends Shutdown or dies.  The local --trace file is flushed once per
   event-loop turn, just before the socket, so it always holds every
   event the hub can have received, and a SIGKILL'd daemon leaves a
   decodable trace prefix behind. *)

let () =
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
