(* The traced run's recorder.  Every call the benchmark wraps (a layer
   boundary) adds to that boundary's call count and busy time; one
   request in [sample_every] additionally keeps a full span per call —
   name, start, end, parent and request id — in memory, and [write]
   puts everything in one JSON file when the run ends.  The wrapped
   boundaries never nest inside one another, so a boundary's busy time
   is its self time.

   The clock is bechamel's noalloc monotonic clock, read through its
   unboxed external and kept in native ints, so timing a call allocates
   nothing: the traced explorer's allocation figures stay the
   explorer's own. *)

external clock : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

(* monotonic nanoseconds *)
let now () = Int64.to_int (clock ())

let sample_every = 1024

type span = {
  id : int;
  name : string;
  start_ns : int;
  end_ns : int;
  parent : int;  (** the request span's id; -1 for a request span *)
  request : int;
}

type t = {
  names : string array;
  calls : int array;
  busy_ns : int array;
  origin : int;
  mutable requests : int;
  mutable req_id : int;  (** open sampled request span; -1 if none *)
  mutable req_start : int;
  mutable req_name : string;
  mutable next_id : int;
  mutable spans : span list;  (** newest first *)
}

let create names =
  let names = Array.of_list names in
  {
    names;
    calls = Array.make (Array.length names) 0;
    busy_ns = Array.make (Array.length names) 0;
    origin = now ();
    requests = 0;
    req_id = -1;
    req_start = 0;
    req_name = "";
    next_id = 0;
    spans = [];
  }

let since t t0 = t0 - t.origin

let close_request t at =
  if t.req_id >= 0 then begin
    t.spans <-
      {
        id = t.req_id;
        name = t.req_name;
        start_ns = t.req_start;
        end_ns = at;
        parent = -1;
        request = t.requests - 1;
      }
      :: t.spans;
    t.req_id <- -1
  end

(* Start request number [requests]: closes the previous one's span, and
   opens a span for this one if it is sampled. *)
let request t name t0 =
  let at = since t t0 in
  close_request t at;
  if t.requests mod sample_every = 0 then begin
    t.req_id <- t.next_id;
    t.next_id <- t.next_id + 1;
    t.req_start <- at;
    t.req_name <- name
  end;
  t.requests <- t.requests + 1

(* Charge one call of boundary [b] that ran from [t0] to [t1]. *)
let record t b t0 t1 =
  t.calls.(b) <- t.calls.(b) + 1;
  t.busy_ns.(b) <- t.busy_ns.(b) + (t1 - t0);
  if t.req_id >= 0 then begin
    t.spans <-
      {
        id = t.next_id;
        name = t.names.(b);
        start_ns = since t t0;
        end_ns = since t t1;
        parent = t.req_id;
        request = t.requests - 1;
      }
      :: t.spans;
    t.next_id <- t.next_id + 1
  end

let calls t b = t.calls.(b)
let busy_ms t b = float_of_int t.busy_ns.(b) /. 1e6

let finish t = close_request t (since t (now ()))

let write t ~path ~workload =
  let open Obs.Json in
  let boundaries =
    List.init (Array.length t.names) (fun b ->
        Obj
          [
            ("name", Str t.names.(b));
            ("calls", Int t.calls.(b));
            ("self_ms", Float (busy_ms t b));
          ])
  in
  let span s =
    Obj
      [
        ("id", Int s.id);
        ("name", Str s.name);
        ("start_ns", Int s.start_ns);
        ("end_ns", Int s.end_ns);
        ("parent", Int s.parent);
        ("request", Int s.request);
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (to_string
           (Obj
              [
                ("workload", Str workload);
                ("requests", Int t.requests);
                ("sample_every", Int sample_every);
                ("boundaries", List boundaries);
                ("spans", List (List.rev_map span t.spans));
              ]));
      output_char oc '\n')
