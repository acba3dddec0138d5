type value = Str of string | Int of int | Float of float | Bool of bool

type kind = Span_open | Span_close | Point

type event = {
  seq : int;
  kind : kind;
  component : string;
  cls : string;
  span : int option;
  payload : (string * value) list;
}

let kind_str = function
  | Span_open -> "span_open"
  | Span_close -> "span_close"
  | Point -> "point"

let pp_value ppf = function
  | Str s -> Format.fprintf ppf "%S" s
  | Int n -> Format.pp_print_int ppf n
  | Float f -> Format.fprintf ppf "%g" f
  | Bool b -> Format.pp_print_bool ppf b

let pp_event ppf e =
  Format.fprintf ppf "#%d %s %s/%s%a [%a]" e.seq (kind_str e.kind) e.component
    e.cls
    (fun ppf -> function
      | None -> ()
      | Some s -> Format.fprintf ppf " (span %d)" s)
    e.span
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf (k, v) -> Format.fprintf ppf "%s=%a" k pp_value v))
    e.payload

let equal_value a b =
  match (a, b) with
  | Str a, Str b -> String.equal a b
  | Int a, Int b -> a = b
  | Float a, Float b -> Float.equal a b
  | Bool a, Bool b -> a = b
  | _ -> false

let equal_event a b =
  a.seq = b.seq && a.kind = b.kind
  && String.equal a.component b.component
  && String.equal a.cls b.cls
  && Option.equal ( = ) a.span b.span
  && List.length a.payload = List.length b.payload
  && List.for_all2
       (fun (ka, va) (kb, vb) -> String.equal ka kb && equal_value va vb)
       a.payload b.payload

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

(* Each sink owns a mutex serializing sequence assignment and the write
   itself, so one sink may be shared by several emitting domains (the
   parallel explorer, engines stepped from worker domains) and still
   produce a dense, monotone, interleaving-free event stream. *)
type sink = { mu : Mutex.t; mutable next_seq : int; write : event -> unit }

let make write = { mu = Mutex.create (); next_seq = 0; write }

let emit sink ~kind ~component ~cls ?span payload =
  Mutex.lock sink.mu;
  let seq = sink.next_seq in
  sink.next_seq <- seq + 1;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sink.mu)
    (fun () -> sink.write { seq; kind; component; cls; span; payload });
  seq

let point sink ~component ~cls payload =
  ignore (emit sink ~kind:Point ~component ~cls payload)

let span_open sink ~component ~cls payload =
  emit sink ~kind:Span_open ~component ~cls payload

let span_close sink ~component ~cls ~span payload =
  ignore (emit sink ~kind:Span_close ~component ~cls ~span payload)

let emitted sink =
  Mutex.lock sink.mu;
  let n = sink.next_seq in
  Mutex.unlock sink.mu;
  n

let memory ?(capacity = 65536) () =
  let q : event Queue.t = Queue.create () in
  let sink =
    make (fun e ->
        Queue.add e q;
        if Queue.length q > capacity then ignore (Queue.pop q))
  in
  (* drain under the sink mutex: the queue is mutated by [write] only,
     which always runs with the mutex held *)
  ( sink,
    fun () ->
      Mutex.lock sink.mu;
      let es = List.of_seq (Queue.to_seq q) in
      Mutex.unlock sink.mu;
      es )

let reporter ?(level = Logs.Debug) ?src () =
  make (fun e -> Logs.msg ?src level (fun m -> m "%a" pp_event e))

let tee sinks = make (fun e -> List.iter (fun s -> s.write e) sinks)

let null () = make ignore

let callback f = make f

(* ------------------------------------------------------------------ *)
(* Payload access                                                      *)
(* ------------------------------------------------------------------ *)

(* The first binding of [key] decides, as with [List.assoc_opt]. *)
let rec str_in key = function
  | [] -> None
  | (k, v) :: rest ->
      if String.equal k key then match v with Str s -> Some s | _ -> None
      else str_in key rest

let rec int_in key = function
  | [] -> None
  | (k, v) :: rest ->
      if String.equal k key then match v with Int n -> Some n | _ -> None
      else int_in key rest

let payload_str key e = str_in key e.payload
let payload_int key e = int_in key e.payload

(* ------------------------------------------------------------------ *)
(* JSONL codec                                                         *)
(* ------------------------------------------------------------------ *)

(* The event object rendered field by field, byte-for-byte what
   [Json.to_string] writes for the equivalent [Json.Obj]. *)
let add_event buf e =
  Buffer.add_string buf "{\"seq\":";
  Json.add_int buf e.seq;
  Buffer.add_string buf ",\"kind\":\"";
  Buffer.add_string buf (kind_str e.kind);
  Buffer.add_string buf "\",\"component\":";
  Json.add_string buf e.component;
  Buffer.add_string buf ",\"class\":";
  Json.add_string buf e.cls;
  Buffer.add_string buf ",\"span\":";
  (match e.span with
  | None -> Buffer.add_string buf "null"
  | Some s -> Json.add_int buf s);
  Buffer.add_string buf ",\"payload\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.add_string buf k;
      Buffer.add_char buf ':';
      match v with
      | Str s -> Json.add_string buf s
      | Int n -> Json.add_int buf n
      | Float f -> Json.add_float buf f
      | Bool b -> Buffer.add_string buf (if b then "true" else "false"))
    e.payload;
  Buffer.add_string buf "}}"

(* One render buffer per domain: [add_event] calls no user code, so it
   is never re-entered on the same domain. *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 256)

let event_to_string e =
  let buf = Domain.DLS.get scratch in
  Buffer.clear buf;
  add_event buf e;
  Buffer.contents buf

(* Crash-safe: the whole line (terminator included) is assembled first
   and handed to the channel as one write, then flushed, so the channel
   buffer is empty between events and a killed writer tears at most the
   line in flight — every preceding line is a complete event
   ([read_jsonl_prefix] recovers the prefix).  The buffer is the sink's
   own: writes run under the sink mutex. *)
let to_channel oc =
  let buf = Buffer.create 256 in
  make (fun e ->
      Buffer.clear buf;
      add_event buf e;
      Buffer.add_char buf '\n';
      Buffer.output_buffer oc buf;
      flush oc)

let ( let* ) r f = Result.bind r f

exception Bad of string

let value_of_json = function
  | Json.Str s -> Str s
  | Json.Int n -> Int n
  | Json.Float f -> Float f
  | Json.Bool b -> Bool b
  | _ -> raise (Bad "payload values must be scalars")

(* One pass over the object's fields.  The first binding of each name
   decides, as with [Json.member]; later duplicates are ignored. *)
let event_of_json j =
  let missing name = Error (Printf.sprintf "missing field %S" name) in
  match j with
  | Json.Obj fields -> (
      let seq = ref None and kind = ref None and component = ref None in
      let cls = ref None and span = ref None and payload = ref None in
      let str name = function
        | Json.Str s -> s
        | _ -> raise (Bad (Printf.sprintf "%s must be a string" name))
      in
      match
        List.iter
          (fun (k, v) ->
            match k with
            | "seq" when Option.is_none !seq ->
                seq :=
                  Some
                    (match v with
                    | Json.Int n -> n
                    | _ -> raise (Bad "seq must be an integer"))
            | "kind" when Option.is_none !kind ->
                kind :=
                  Some
                    (match v with
                    | Json.Str "span_open" -> Span_open
                    | Json.Str "span_close" -> Span_close
                    | Json.Str "point" -> Point
                    | _ -> raise (Bad "unknown kind"))
            | "component" when Option.is_none !component ->
                component := Some (str k v)
            | "class" when Option.is_none !cls -> cls := Some (str k v)
            | "span" when Option.is_none !span ->
                span :=
                  Some
                    (match v with
                    | Json.Null -> None
                    | Json.Int n -> Some n
                    | _ -> raise (Bad "span must be null or an integer"))
            | "payload" when Option.is_none !payload ->
                payload :=
                  Some
                    (match v with
                    | Json.Obj fs ->
                        List.map (fun (k, v) -> (k, value_of_json v)) fs
                    | _ -> raise (Bad "payload must be an object"))
            | _ -> ())
          fields
      with
      | exception Bad msg -> Error msg
      | () -> (
          match (!seq, !kind, !component, !cls, !span, !payload) with
          | ( Some seq,
              Some kind,
              Some component,
              Some cls,
              Some span,
              Some payload ) ->
              Ok { seq; kind; component; cls; span; payload }
          | None, _, _, _, _, _ -> missing "seq"
          | _, None, _, _, _, _ -> missing "kind"
          | _, _, None, _, _, _ -> missing "component"
          | _, _, _, None, _, _ -> missing "class"
          | _, _, _, _, None, _ -> missing "span"
          | _ -> missing "payload"))
  | _ -> missing "seq"

let event_of_string line =
  let* j = Json.of_string line in
  event_of_json j

let read_jsonl ic =
  let rec go lineno acc =
    match input_line ic with
    | exception End_of_file -> Ok (List.rev acc)
    | "" -> go (lineno + 1) acc
    | line -> (
        match event_of_string line with
        | Ok e -> go (lineno + 1) (e :: acc)
        | Error msg -> Error (lineno, msg))
  in
  go 1 []

(* Crash-tolerant variant: a SIGKILL'd writer leaves a file whose last
   line may be torn mid-write (the [to_channel] sink flushes per event,
   so every earlier line is complete).  Decode the valid prefix and
   report where it stopped instead of failing the whole file. *)
let fold_jsonl_prefix ic init f =
  let rec go lineno acc =
    match input_line ic with
    | exception End_of_file -> (acc, None)
    | "" -> go (lineno + 1) acc
    | line -> (
        match event_of_string line with
        | Ok e -> go (lineno + 1) (f acc e)
        | Error msg -> (acc, Some (lineno, msg)))
  in
  go 1 init

let read_jsonl_prefix ic =
  let rev, torn = fold_jsonl_prefix ic [] (fun acc e -> e :: acc) in
  (List.rev rev, torn)
