(* lib/obs: the JSONL codec, sink sequencing, metrics snapshots, and the
   zero-impact contract of the Exec instrumentation hooks. *)

open Prelude
module T = Obs.Trace
module M = Obs.Metrics
module J = Obs.Json

(* ------------------------------------------------------------------ *)
(* The single-pass codec against the tree codec it replaced            *)
(* ------------------------------------------------------------------ *)

(* The tree codec as it stood before [Json] rendered escapes in place
   and [Trace] rendered and read events without a [Json.t] tree: the
   oracle.  The new code must write its bytes, and accept exactly what
   it accepts, with the same value. *)
module Oracle = struct
  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let float_repr f =
    let s = Printf.sprintf "%.17g" f in
    let s =
      let shorter = Printf.sprintf "%.12g" f in
      if float_of_string shorter = f then shorter else s
    in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

  let rec write buf = function
    | J.Null -> Buffer.add_string buf "null"
    | J.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | J.Int n -> Buffer.add_string buf (string_of_int n)
    | J.Float f ->
        if Float.is_finite f then Buffer.add_string buf (float_repr f)
        else Buffer.add_string buf "null"
    | J.Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | J.List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            write buf x)
          xs;
        Buffer.add_char buf ']'
    | J.Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\":";
            write buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 256 in
    write buf j;
    Buffer.contents buf

  exception Parse of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else begin
          let c = s.[!pos] in
          advance ();
          match c with
          | '"' -> Buffer.contents buf
          | '\\' -> (
              if !pos >= n then fail "unterminated escape"
              else begin
                let e = s.[!pos] in
                advance ();
                match e with
                | '"' -> Buffer.add_char buf '"'; go ()
                | '\\' -> Buffer.add_char buf '\\'; go ()
                | '/' -> Buffer.add_char buf '/'; go ()
                | 'n' -> Buffer.add_char buf '\n'; go ()
                | 't' -> Buffer.add_char buf '\t'; go ()
                | 'r' -> Buffer.add_char buf '\r'; go ()
                | 'b' -> Buffer.add_char buf '\b'; go ()
                | 'f' -> Buffer.add_char buf '\012'; go ()
                | 'u' ->
                    if !pos + 4 > n then fail "truncated \\u escape";
                    let hex = String.sub s !pos 4 in
                    pos := !pos + 4;
                    let code =
                      try int_of_string ("0x" ^ hex)
                      with _ -> fail "bad \\u escape"
                    in
                    if code < 0x100 then Buffer.add_char buf (Char.chr code)
                    else Buffer.add_char buf '?';
                    go ()
                | _ -> fail "unknown escape"
              end)
          | c -> Buffer.add_char buf c; go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let lit = String.sub s start (!pos - start) in
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit then
        match float_of_string_opt lit with
        | Some f -> J.Float f
        | None -> fail "bad float literal"
      else
        match int_of_string_opt lit with
        | Some i -> J.Int i
        | None -> fail "bad int literal"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> J.Str (parse_string ())
      | Some 'n' -> literal "null" J.Null
      | Some 't' -> literal "true" (J.Bool true)
      | Some 'f' -> literal "false" (J.Bool false)
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            J.List []
          end
          else begin
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); elems (v :: acc)
              | Some ']' -> advance (); List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            J.List (elems [])
          end
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            J.Obj []
          end
          else begin
            let field () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              (k, v)
            in
            let rec fields acc =
              let f = field () in
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); fields (f :: acc)
              | Some '}' -> advance (); List.rev (f :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            J.Obj (fields [])
          end
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos < n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse msg -> Error msg

  let kind_str = function
    | T.Span_open -> "span_open"
    | T.Span_close -> "span_close"
    | T.Point -> "point"

  let value_json = function
    | T.Str s -> J.Str s
    | T.Int n -> J.Int n
    | T.Float f -> J.Float f
    | T.Bool b -> J.Bool b

  let event_json (e : T.event) =
    J.Obj
      [
        ("seq", J.Int e.seq);
        ("kind", J.Str (kind_str e.kind));
        ("component", J.Str e.component);
        ("class", J.Str e.cls);
        ("span", match e.span with None -> J.Null | Some s -> J.Int s);
        ( "payload",
          J.Obj (List.map (fun (k, v) -> (k, value_json v)) e.payload) );
      ]

  let event_to_string e = to_string (event_json e)

  let ( let* ) r f = Result.bind r f

  let value_of_json = function
    | J.Str s -> Ok (T.Str s)
    | J.Int n -> Ok (T.Int n)
    | J.Float f -> Ok (T.Float f)
    | J.Bool b -> Ok (T.Bool b)
    | _ -> Error "payload values must be scalars"

  let event_of_json j =
    let field name =
      match J.member name j with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" name)
    in
    let* seq =
      match field "seq" with
      | Ok (J.Int n) -> Ok n
      | Ok _ -> Error "seq must be an integer"
      | Error e -> Error e
    in
    let* kind =
      match field "kind" with
      | Ok (J.Str "span_open") -> Ok T.Span_open
      | Ok (J.Str "span_close") -> Ok T.Span_close
      | Ok (J.Str "point") -> Ok T.Point
      | Ok _ -> Error "unknown kind"
      | Error e -> Error e
    in
    let str name =
      match field name with
      | Ok (J.Str s) -> Ok s
      | Ok _ -> Error (Printf.sprintf "%s must be a string" name)
      | Error e -> Error e
    in
    let* component = str "component" in
    let* cls = str "class" in
    let* span =
      match field "span" with
      | Ok J.Null -> Ok None
      | Ok (J.Int n) -> Ok (Some n)
      | Ok _ -> Error "span must be null or an integer"
      | Error e -> Error e
    in
    let* payload =
      match field "payload" with
      | Ok (J.Obj fields) ->
          List.fold_left
            (fun acc (k, v) ->
              let* acc = acc in
              let* v = value_of_json v in
              Ok ((k, v) :: acc))
            (Ok []) fields
          |> Result.map List.rev
      | Ok _ -> Error "payload must be an object"
      | Error e -> Error e
    in
    Ok { T.seq; kind; component; cls; span; payload }

  let event_of_string line =
    let* j = of_string line in
    event_of_json j
end

(* Same verdict as the oracle on [doc], for both the JSON parser and the
   event reader: equal [Ok] values, or [Error] on both sides. *)
let agrees doc =
  let json =
    match (J.of_string doc, Oracle.of_string doc) with
    | Ok a, Ok b -> J.equal a b
    | Error _, Error _ -> true
    | _ -> false
  in
  let event =
    match (T.event_of_string doc, Oracle.event_of_string doc) with
    | Ok a, Ok b -> T.equal_event a b
    | Error _, Error _ -> true
    | _ -> false
  in
  json && event

let check_agrees doc =
  if not (agrees doc) then
    Alcotest.failf "verdict differs from the oracle on %S" doc

(* ------------------------------------------------------------------ *)
(* JSON round-trips                                                    *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let samples =
    [
      J.Null;
      J.Bool true;
      J.Int 0;
      J.Int (-42);
      J.Float 3.5;
      J.Float (-0.125);
      J.Str "plain";
      J.Str "esc \"quo\\ted\"\n\ttabbed";
      J.List [ J.Int 1; J.Str "two"; J.Null ];
      J.Obj
        [
          ("a", J.Int 1);
          ("nested", J.Obj [ ("xs", J.List [ J.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      match J.of_string (J.to_string v) with
      | Ok v' ->
          Alcotest.(check bool)
            (J.to_string v ^ " round-trips")
            true (J.equal v v')
      | Error e -> Alcotest.failf "parse error on %s: %s" (J.to_string v) e)
    samples;
  (* Int and Float survive as distinct cases *)
  (match J.of_string "7" with
  | Ok (J.Int 7) -> ()
  | _ -> Alcotest.fail "7 should parse as Int");
  match J.of_string "7.0" with
  | Ok (J.Float 7.0) -> ()
  | _ -> Alcotest.fail "7.0 should parse as Float"

(* Seeded fuzz: random value trees (nasty strings, deep nesting, empty
   containers) must satisfy decode(encode v) = v, and re-encoding the
   decoded value must reproduce the exact document (encode is a function
   of the value, so round-tripped values print identically). *)
let gen_json rng =
  (* dyadic fractions only: exactly representable, so printing and
     re-parsing cannot lose precision *)
  let gen_float () =
    let mantissa = Random.State.int rng 4096 - 2048 in
    let scale = [| 1.; 2.; 4.; 8.; 256.; 65536. |] in
    float_of_int mantissa /. scale.(Random.State.int rng (Array.length scale))
  in
  let gen_string () =
    let n = Random.State.int rng 12 in
    String.init n (fun _ ->
        match Random.State.int rng 8 with
        | 0 -> '"'
        | 1 -> '\\'
        | 2 -> '\n'
        | 3 -> '\t'
        | 4 -> Char.chr (Random.State.int rng 32) (* control chars *)
        | 5 -> Char.chr (128 + Random.State.int rng 128) (* high bytes *)
        | _ -> Char.chr (32 + Random.State.int rng 95))
  in
  let rec go depth =
    let leafy = depth >= 4 || Random.State.bool rng in
    if leafy then
      match Random.State.int rng 5 with
      | 0 -> J.Null
      | 1 -> J.Bool (Random.State.bool rng)
      | 2 -> J.Int (Random.State.int rng 2_000_000 - 1_000_000)
      | 3 -> J.Float (gen_float ())
      | _ -> J.Str (gen_string ())
    else if Random.State.bool rng then
      J.List (List.init (Random.State.int rng 4) (fun _ -> go (depth + 1)))
    else
      J.Obj
        (List.init (Random.State.int rng 4) (fun i ->
             (Printf.sprintf "%s%d" (gen_string ()) i, go (depth + 1))))
  in
  go 0

let test_json_fuzz_roundtrip () =
  let rng = Random.State.make [| 2026 |] in
  for i = 1 to 500 do
    let v = gen_json rng in
    let doc = J.to_string v in
    match J.of_string doc with
    | Error e -> Alcotest.failf "fuzz %d: parse error on %s: %s" i doc e
    | Ok v' ->
        if not (J.equal v v') then
          Alcotest.failf "fuzz %d: value changed through %s" i doc;
        Alcotest.(check string)
          (Printf.sprintf "fuzz %d: re-encode fixed point" i)
          doc (J.to_string v');
        Alcotest.(check string)
          (Printf.sprintf "fuzz %d: the tree codec's bytes" i)
          (Oracle.to_string v) doc;
        check_agrees doc
  done

let mk_events () =
  let sink, drain = T.memory () in
  let span =
    T.span_open sink ~component:"test" ~cls:"run" [ ("budget", T.Int 3) ]
  in
  T.point sink ~component:"test" ~cls:"step"
    [
      ("i", T.Int 0);
      ("action", T.Str "vs-gpsnd(a)_p0");
      ("weight", T.Float 0.5);
      ("external", T.Bool true);
    ];
  T.span_close sink ~component:"test" ~cls:"run" ~span
    [ ("steps", T.Int 1) ];
  drain ()

let test_event_roundtrip () =
  List.iter
    (fun e ->
      match T.event_of_string (T.event_to_string e) with
      | Ok e' ->
          Alcotest.(check bool)
            (T.event_to_string e ^ " round-trips")
            true (T.equal_event e e')
      | Error msg ->
          Alcotest.failf "parse error on %s: %s" (T.event_to_string e) msg)
    (mk_events ())

(* Strings heavy in what needs escaping: quotes, backslashes, every
   control character, bytes above 0x7f. *)
let gen_nasty_string =
  QCheck.Gen.(
    string_size (int_bound 24)
      ~gen:
        (frequency
           [
             (1, return '"');
             (1, return '\\');
             (2, map Char.chr (int_bound 31));
             (2, map Char.chr (int_range 128 255));
             (4, printable);
           ]))

let gen_int =
  QCheck.Gen.(
    frequency
      [
        (4, small_signed_int);
        (2, int);
        (1, oneofl [ max_int; min_int; 0; -1; max_int - 1; min_int + 1 ]);
      ])

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (4, float);
        (1, oneofl [ 0.; -0.; 1e300; -1e-300; 5e-324; 0.1; nan; infinity ]);
      ])

let gen_event =
  QCheck.Gen.(
    let value =
      frequency
        [
          (3, map (fun s -> T.Str s) gen_nasty_string);
          (3, map (fun n -> T.Int n) gen_int);
          (1, map (fun f -> T.Float f) gen_float);
          (1, map (fun b -> T.Bool b) bool);
        ]
    in
    map
      (fun ((seq, kind, component), (cls, span, payload)) ->
        { T.seq; kind; component; cls; span; payload })
      (pair
         (triple gen_int
            (oneofl [ T.Span_open; T.Span_close; T.Point ])
            gen_nasty_string)
         (triple gen_nasty_string (opt gen_int)
            (list_size (int_bound 6) (pair gen_nasty_string value)))))

let prop_event_codec_vs_oracle =
  QCheck.Test.make ~count:2000 ~name:"render and read = tree codec"
    (QCheck.make ~print:Oracle.event_to_string gen_event)
    (fun e ->
      let line = T.event_to_string e in
      if not (String.equal line (Oracle.event_to_string e)) then
        QCheck.Test.fail_reportf "rendered %S" line;
      if not (agrees line) then QCheck.Test.fail_reportf "read of %S" line;
      (* the same event as a generic value renders identically too *)
      let tree = Oracle.event_json e in
      String.equal (J.to_string tree) (Oracle.to_string tree))

(* Integer literals at and past the edge of [int], and the shapes
   [int_of_string] takes or refuses, alone and as an event's fields. *)
let test_int_literals_vs_oracle () =
  let digits k = String.init k (fun i -> Char.chr (49 + (i mod 9))) in
  let lits =
    [
      digits 18;
      digits 19;
      digits 20;
      "-" ^ digits 18;
      "-" ^ digits 19;
      "-" ^ digits 20;
      string_of_int max_int;
      string_of_int min_int;
      "4611686018427387904";
      "-4611686018427387905";
      "9223372036854775807";
      "18446744073709551616";
      "-0";
      "+0";
      "+5";
      "01";
      "-01";
      "007";
      "+";
      "-";
      "--5";
      "+-5";
      "5-";
      "5+5";
      "0";
    ]
  in
  List.iter
    (fun lit ->
      check_agrees lit;
      check_agrees (" " ^ lit ^ " ");
      check_agrees ("[" ^ lit ^ "]");
      check_agrees
        (Printf.sprintf
           {|{"seq":%s,"kind":"point","component":"c","class":"k","span":%s,"payload":{"n":%s}}|}
           lit lit lit))
    lits;
  (* and the accepted ones read back as the same [int] *)
  List.iter
    (fun (lit, v) ->
      match J.of_string lit with
      | Ok (J.Int n) -> Alcotest.(check int) lit v n
      | _ -> Alcotest.failf "%s should parse as an Int" lit)
    [
      (string_of_int max_int, max_int);
      (string_of_int min_int, min_int);
      ("-0", 0);
      ("+5", 5);
      ("01", 1);
    ]

let test_float_literals_vs_oracle () =
  List.iter
    (fun lit ->
      check_agrees lit;
      check_agrees ("[" ^ lit ^ ",1]");
      check_agrees
        (Printf.sprintf
           {|{"seq":1,"kind":"point","component":"c","class":"k","span":null,"payload":{"x":%s}}|}
           lit))
    [
      "1.5"; "-0.0"; "0.1"; "1e5"; "1E5"; "1e+5"; "1e-5"; "-2.5e-3"; ".5";
      "5."; "1e400"; "-1e400"; "1e"; "e1"; "1.2.3"; "1..2"; "+1.5"; "1e5.5";
      "-"; "."; "4.9406564584124654e-324"; "0.30000000000000004";
    ]

(* Every truncation and every single-byte mutation of rendered lines
   with escapes, control bytes and extreme numbers: the verdict and the
   value match the oracle's on each. *)
let test_truncations_and_mutations_vs_oracle () =
  let events =
    [
      {
        T.seq = 12;
        kind = T.Point;
        component = "vs.engine";
        cls = "deliver";
        span = None;
        payload =
          [
            ("p", T.Str "1");
            ("gid", T.Str "g3");
            ("sn", T.Int 41);
            ("origin", T.Str "0");
            ("msg", T.Str "m\"q\\\n\x01\xe9");
          ];
      };
      {
        T.seq = max_int;
        kind = T.Span_close;
        component = "t\tab";
        cls = "run";
        span = Some min_int;
        payload = [ ("w", T.Float 0.5); ("ok", T.Bool false); ("n", T.Int (-7)) ];
      };
    ]
  in
  (* field orders, duplicates (the first binding decides), missing,
     extra and ill-typed fields, and a top level that is no object *)
  List.iter check_agrees
    [
      {|{"payload":{},"span":null,"class":"k","component":"c","kind":"point","seq":3}|};
      {| { "seq" : 1 , "kind" : "point" , "component" : "c" , "class" : "k" , "span" : 2 , "payload" : { "a" : true } } |};
      {|{"seq":1,"seq":2,"kind":"point","component":"c","class":"k","span":null,"payload":{}}|};
      {|{"seq":1,"kind":"point","component":"c","class":"k","span":null,"payload":{},"seq":"x"}|};
      {|{"seq":"x","kind":"point","component":"c","class":"k","span":null,"payload":{},"seq":1}|};
      {|{"seq":1,"kind":"point","kind":"nope","component":"c","class":"k","span":null,"payload":{}}|};
      {|{"seq":1,"kind":"point","component":"c","class":"k","span":null,"payload":{"a":1,"a":"b"}}|};
      {|{"seq":1,"kind":"point","component":"c","class":"k","span":null,"payload":{},"payload":7}|};
      {|{"seq":1,"kind":"point","component":"c","class":"k","span":null,"payload":{},"extra":[1,{}]}|};
      {|{"seq":1,"kind":"point","component":"c","class":"k","payload":{}}|};
      {|{"seq":1,"kind":"point","component":"c","class":"k","span":1.5,"payload":{}}|};
      {|{"seq":1,"kind":"point","component":"c","class":7,"span":null,"payload":{}}|};
      {|{"seq":1,"kind":"point","component":"c","class":"k","span":null,"payload":{"x":null}}|};
      {|{"seq":1,"kind":"point","component":"c","class":"k","span":null,"payload":{"x":[1]}}|};
      {|{"seq":1,"kind":"point","component":"c","class":"k","span":null,"payload":[]}|};
      {|[{"seq":1}]|};
      {|"\u00e9\u0100\u1_2_\/\b\f"|};
      {|"\u12"|};
      {|"\x"|};
      {|{}|};
      {|{"a":1,}|};
      {|[1,]|};
      {|nul|};
    ];
  let bytes = List.init 256 Char.chr in
  List.iter
    (fun e ->
      let line = T.event_to_string e in
      check_agrees line;
      for k = 0 to String.length line - 1 do
        check_agrees (String.sub line 0 k)
      done;
      String.iteri
        (fun i c0 ->
          List.iter
            (fun c ->
              if c <> c0 then begin
                let b = Bytes.of_string line in
                Bytes.set b i c;
                check_agrees (Bytes.to_string b)
              end)
            bytes)
        line)
    events

let test_jsonl_file_roundtrip () =
  let events = mk_events () in
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sink = T.to_channel oc in
      List.iter
        (fun (e : T.event) ->
          match e.T.kind with
          | T.Span_open -> ignore (T.span_open sink ~component:e.T.component ~cls:e.T.cls e.T.payload)
          | T.Span_close ->
              T.span_close sink ~component:e.T.component ~cls:e.T.cls
                ~span:(Option.get e.T.span) e.T.payload
          | T.Point -> T.point sink ~component:e.T.component ~cls:e.T.cls e.T.payload)
        events;
      close_out oc;
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match T.read_jsonl ic with
          | Error (line, msg) -> Alcotest.failf "line %d: %s" line msg
          | Ok back ->
              Alcotest.(check int)
                "same count" (List.length events) (List.length back);
              List.iter2
                (fun a b ->
                  Alcotest.(check bool) "same event" true (T.equal_event a b))
                events back))

(* ------------------------------------------------------------------ *)
(* Sequencing                                                          *)
(* ------------------------------------------------------------------ *)

let test_seq_monotone_interleaved () =
  let sink, drain = T.memory () in
  (* interleave two logical spans through one sink *)
  let s1 = T.span_open sink ~component:"a" ~cls:"outer" [] in
  let s2 = T.span_open sink ~component:"b" ~cls:"inner" [] in
  T.point sink ~component:"a" ~cls:"tick" [];
  T.point sink ~component:"b" ~cls:"tick" [];
  T.span_close sink ~component:"b" ~cls:"inner" ~span:s2 [];
  T.point sink ~component:"a" ~cls:"tick" [];
  T.span_close sink ~component:"a" ~cls:"outer" ~span:s1 [];
  let events = drain () in
  Alcotest.(check int) "emitted" 7 (T.emitted sink);
  List.iteri
    (fun i (e : T.event) -> Alcotest.(check int) "dense monotone seq" i e.T.seq)
    events;
  (* close events reference the right opens *)
  let close_of cls =
    List.find
      (fun (e : T.event) -> e.T.kind = T.Span_close && e.T.cls = cls)
      events
  in
  Alcotest.(check (option int)) "inner span ref" (Some s2) (close_of "inner").T.span;
  Alcotest.(check (option int)) "outer span ref" (Some s1) (close_of "outer").T.span

let test_memory_ring_capacity () =
  let sink, drain = T.memory ~capacity:4 () in
  for i = 0 to 9 do
    T.point sink ~component:"c" ~cls:"tick" [ ("i", T.Int i) ]
  done;
  let events = drain () in
  Alcotest.(check int) "capped" 4 (List.length events);
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun (e : T.event) -> e.T.seq) events)

(* ------------------------------------------------------------------ *)
(* Exec instrumentation: one event per step, and no behavioural drift   *)
(* ------------------------------------------------------------------ *)

module Vsg = Vs.Vs_gen.Make (Msg_intf.String_msg)

let vs_exec ?sink seed =
  let rng = Random.State.make [| seed |] in
  let rng_views = Random.State.make [| seed + 1000 |] in
  let cfg = Vsg.default_config ~payloads:[ "a"; "b" ] ~universe:3 in
  let gen = Vsg.generative cfg ~rng_views in
  Ioa.Exec.run ?sink gen ~rng ~steps:120
    ~init:(Vsg.Spec.initial (Proc.Set.universe 3))

let test_exec_one_event_per_step () =
  let sink, drain = T.memory () in
  let exec, _ = vs_exec ~sink 42 in
  let events = drain () in
  let points =
    List.filter (fun (e : T.event) -> e.T.kind = T.Point) events
  in
  Alcotest.(check int) "one point per step" (Ioa.Exec.length exec)
    (List.length points);
  (* span_open first, span_close last, and the step indices are 0..n-1 *)
  (match events with
  | first :: _ -> Alcotest.(check bool) "opens span" true (first.T.kind = T.Span_open)
  | [] -> Alcotest.fail "no events");
  (match List.rev events with
  | last :: _ ->
      Alcotest.(check bool) "closes span" true (last.T.kind = T.Span_close)
  | [] -> ());
  List.iteri
    (fun i (e : T.event) ->
      match List.assoc_opt "i" e.T.payload with
      | Some (T.Int j) -> Alcotest.(check int) "step index" i j
      | _ -> Alcotest.fail "point without step index")
    points

let test_exec_sink_no_behaviour_change () =
  let plain, stop1 = vs_exec 7 in
  let sink, _drain = T.memory () in
  let sinked, stop2 = vs_exec ~sink 7 in
  Alcotest.(check bool) "same stop reason" true (stop1 = stop2);
  Alcotest.(check int) "same length" (Ioa.Exec.length plain)
    (Ioa.Exec.length sinked);
  Alcotest.(check bool) "same final state" true
    (Vsg.Spec.equal_state (Ioa.Exec.last plain) (Ioa.Exec.last sinked));
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same action"
        (Format.asprintf "%a" Vsg.Spec.pp_action a)
        (Format.asprintf "%a" Vsg.Spec.pp_action b))
    (Ioa.Exec.actions plain) (Ioa.Exec.actions sinked)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_snapshot () =
  let m = M.create () in
  M.incr m "b.count";
  M.incr m ~by:4 "b.count";
  M.incr m "a.count";
  M.set m "g" 2.5;
  M.observe m "h" 1.0;
  M.observe m "h" 3.0;
  let snap = M.snapshot m in
  Alcotest.(check (list (pair string int)))
    "counters name-sorted"
    [ ("a.count", 1); ("b.count", 5) ]
    snap.M.counters;
  Alcotest.(check int) "count accessor" 5 (M.count m "b.count");
  Alcotest.(check int) "missing counter is 0" 0 (M.count m "nope");
  (match snap.M.histograms with
  | [ ("h", Some s) ] ->
      Alcotest.(check (float 1e-9)) "mean" 2.0 s.Stats.mean
  | _ -> Alcotest.fail "expected one populated histogram");
  (* the snapshot JSON is parseable and preserves the numbers *)
  match J.of_string (M.snapshot_to_string snap) with
  | Error e -> Alcotest.failf "snapshot JSON unparseable: %s" e
  | Ok js -> (
      match J.member "counters" js with
      | Some (J.Obj cs) ->
          Alcotest.(check bool) "b.count present" true
            (List.assoc_opt "b.count" cs = Some (J.Int 5))
      | _ -> Alcotest.fail "no counters object")

let test_summarize_opt_empty () =
  Alcotest.(check bool) "empty is None" true (Stats.summarize_opt [] = None);
  (match Stats.summarize_opt [ 2.0 ] with
  | Some s -> Alcotest.(check (float 1e-9)) "singleton mean" 2.0 s.Stats.mean
  | None -> Alcotest.fail "singleton should summarize");
  (* an empty histogram snapshots to None instead of raising *)
  let m = M.create () in
  M.observe m "h" 1.0;
  let snap = M.snapshot m in
  ignore snap;
  Alcotest.check_raises "summarize [] still raises"
    (Invalid_argument "Stats.summarize: empty sample") (fun () ->
      ignore (Stats.summarize []))

(* ------------------------------------------------------------------ *)
(* Domain-safety: 4 domains hammering one sink / one registry           *)
(* ------------------------------------------------------------------ *)

let stress_domains = 4
let stress_events = 10_000

let spawn_each f =
  Array.init stress_domains (fun d -> Domain.spawn (fun () -> f d))
  |> Array.iter Domain.join

let test_sink_stress_jsonl () =
  let path = Filename.temp_file "obs_stress" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let sink = T.to_channel oc in
  spawn_each (fun d ->
      for i = 0 to stress_events - 1 do
        T.point sink ~component:"stress" ~cls:"tick"
          [ ("d", T.Int d); ("i", T.Int i) ]
      done);
  close_out oc;
  let ic = open_in path in
  let events =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match T.read_jsonl ic with
        | Ok es -> es
        | Error (line, msg) -> Alcotest.failf "line %d: %s" line msg)
  in
  let total = stress_domains * stress_events in
  Alcotest.(check int) "every event written and parseable" total
    (List.length events);
  (* seqs are exactly 0 .. total-1: dense, no duplicates, no interleaved
     half-writes *)
  let seqs = List.sort compare (List.map (fun (e : T.event) -> e.T.seq) events) in
  Alcotest.(check (list int)) "seqs dense" (List.init total Fun.id) seqs;
  (* per-domain event order is preserved through the shared sink *)
  for d = 0 to stress_domains - 1 do
    let mine =
      List.filter_map
        (fun (e : T.event) ->
          match (List.assoc_opt "d" e.T.payload, List.assoc_opt "i" e.T.payload)
          with
          | Some (T.Int d'), Some (T.Int i) when d' = d -> Some i
          | _ -> None)
        events
    in
    Alcotest.(check (list int))
      (Printf.sprintf "domain %d in order" d)
      (List.init stress_events Fun.id)
      mine
  done

let test_metrics_stress () =
  let m = M.create () in
  spawn_each (fun d ->
      let mine = Printf.sprintf "stress.domain%d" d in
      for i = 0 to stress_events - 1 do
        M.incr m "stress.total";
        M.incr m mine;
        M.observe m "stress.samples" (float_of_int i)
      done);
  let total = stress_domains * stress_events in
  Alcotest.(check int) "no lost counter bumps" total (M.count m "stress.total");
  let per_domain_sum =
    List.init stress_domains (fun d ->
        M.count m (Printf.sprintf "stress.domain%d" d))
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "merged total equals per-domain sum" total per_domain_sum;
  match List.assoc_opt "stress.samples" (M.snapshot m).M.histograms with
  | Some (Some s) ->
      Alcotest.(check int) "every sample merged" total s.Stats.n;
      Alcotest.(check (float 1e-6))
        "mean of 4 identical streams"
        (float_of_int (stress_events - 1) /. 2.)
        s.Stats.mean
  | Some None | None -> Alcotest.fail "histogram missing"

(* Histogram shards hold unboxed floats: one snapshot summary equals
   [Stats.summarize] over the samples in observation order (same n,
   mean, percentiles — bit for bit), the recorder costs under 2 words a
   sample (a cons cell plus a boxed float cost 5), and samples observed
   from 4 domains at once summarize like the same multiset. *)
let test_metrics_series_unboxed () =
  let m = M.create () in
  let rng = Random.State.make [| 7 |] in
  let n = 100_000 in
  let xs = List.init n (fun _ -> Random.State.float rng 1000.) in
  List.iter (M.observe m "lat") xs;
  (match List.assoc_opt "lat" (M.snapshot m).M.histograms with
  | Some (Some s) ->
      Alcotest.(check bool) "summary identical to the sample list's" true
        (Stats.summarize_opt xs = Some s)
  | _ -> Alcotest.fail "histogram missing");
  let words = Obj.reachable_words (Obj.repr m) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words for %d samples: < 2 a sample" words n)
    true
    (words < 2 * n);
  let m = M.create () in
  spawn_each (fun d ->
      for i = 0 to stress_events - 1 do
        M.observe m "mixed" (float_of_int ((i * stress_domains) + d))
      done);
  let all =
    List.init (stress_domains * stress_events) (fun i -> float_of_int i)
  in
  match
    (List.assoc_opt "mixed" (M.snapshot m).M.histograms, Stats.summarize_opt all)
  with
  | Some (Some s), Some want ->
      Alcotest.(check int) "n" want.Stats.n s.Stats.n;
      Alcotest.(check (list (float 0.)))
        "mean, min, max, p50, p90, p99"
        Stats.[ want.mean; want.min; want.max; want.p50; want.p90; want.p99 ]
        Stats.[ s.mean; s.min; s.max; s.p50; s.p90; s.p99 ]
  | _ -> Alcotest.fail "histogram missing"

(* ------------------------------------------------------------------ *)
(* Online monitors                                                      *)
(* ------------------------------------------------------------------ *)

module Vstack = Vs_impl.Stack.Make (Msg_intf.String_msg)

(* Gpsnd → Send → Duplicate → Deliver → Deliver: the duplicated forward
   reaches the sequencer twice.  [Faithful] drops the copy on its
   watermark (no second "sequenced" event); [No_dedup] assigns it a
   second position — which [unique_sequencing] must flag on the spot. *)
let monitor_run variant =
  let p0 = Proc.Set.universe 2 in
  let s =
    Vstack.initial
      ~faults:(Vs_impl.Fault.adversarial ())
      ~variant ~universe:2 ~p0 ()
  in
  let mon = Obs.Monitor.create (Obs.Monitor.standard ()) in
  let out, drain = T.memory () in
  let sink = Obs.Monitor.sink ~out mon in
  let step s a = Vstack.step ~sink s a in
  let s = step s (Vstack.Gpsnd (1, "x")) in
  let dst, pkt =
    match Vstack.E.fwd_send (Vstack.engine s 1) with
    | Some dp -> dp
    | None -> Alcotest.fail "no forward offered"
  in
  let s = step s (Vstack.Send { src = 1; dst; pkt }) in
  let s = step s (Vstack.Duplicate { src = 1; dst }) in
  let deliver s =
    match Vstack.N.deliverable s.Vstack.net ~src:1 ~dst with
    | Some pkt -> step s (Vstack.Deliver { src = 1; dst; pkt })
    | None -> Alcotest.fail "channel empty"
  in
  let s = deliver s in
  let (_ : Vstack.state) = deliver s in
  (mon, drain)

let test_monitor_clean_stream () =
  let mon, drain = monitor_run Vstack.E.Faithful in
  Alcotest.(check bool) "faithful stream passes" true (Obs.Monitor.ok mon);
  Alcotest.(check int) "saw the sequencing events" 1
    (Obs.Monitor.events_seen mon);
  Alcotest.(check int) "no violation events on out" 0 (List.length (drain ()))

let test_monitor_flags_no_dedup () =
  let mon, drain = monitor_run Vstack.E.No_dedup in
  Alcotest.(check bool) "defect stream flagged" false (Obs.Monitor.ok mon);
  (match Obs.Monitor.violations mon with
  | [ v ] ->
      Alcotest.(check string) "right rule" "unique-sequencing"
        v.Obs.Monitor.rule
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  (* the violation was also emitted online, as an event on [out] *)
  match drain () with
  | [ e ] ->
      Alcotest.(check string) "violation event" "violation" e.T.cls;
      Alcotest.(check string) "monitor component" "obs.monitor" e.T.component
  | es -> Alcotest.failf "expected 1 out event, got %d" (List.length es)

let test_monitor_monotone_progress () =
  let feed states =
    let mon = Obs.Monitor.create [ Obs.Monitor.monotone_progress () ] in
    List.iteri
      (fun i n ->
        let (_ : Obs.Monitor.violation list) =
          Obs.Monitor.feed mon
            {
              T.seq = i;
              kind = T.Point;
              component = "check.explorer";
              cls = "progress";
              span = None;
              payload = [ ("states", T.Int n) ];
            }
        in
        ())
      states;
    mon
  in
  Alcotest.(check bool) "increasing passes" true
    (Obs.Monitor.ok (feed [ 1; 5; 5; 9 ]));
  let mon = feed [ 1; 5; 3 ] in
  Alcotest.(check bool) "regressing flagged" false (Obs.Monitor.ok mon);
  match Obs.Monitor.violations mon with
  | [ v ] -> Alcotest.(check int) "at the regressing event" 2 v.Obs.Monitor.at_seq
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

(* ------------------------------------------------------------------ *)
(* Profiler                                                             *)
(* ------------------------------------------------------------------ *)

let spin () =
  (* burn a little real time so phase totals are visibly nonzero *)
  let t0 = Obs.Prof.now_ns () in
  while Int64.sub (Obs.Prof.now_ns ()) t0 < 2_000_000L do
    ()
  done

let test_prof_phases_disjoint () =
  let p = Obs.Prof.create ~phases:[ "outer"; "inner" ] ~slots:2 () in
  let outer = Obs.Prof.intern p "outer" in
  let inner = Obs.Prof.intern p "inner" in
  Alcotest.(check int) "intern idempotent" outer (Obs.Prof.intern p "outer");
  Obs.Prof.enter p ~slot:0 outer;
  spin ();
  Obs.Prof.enter p ~slot:0 inner;
  (* entering [inner] pauses [outer] *)
  spin ();
  Obs.Prof.leave p ~slot:0 inner;
  Obs.Prof.leave p ~slot:0 outer;
  Obs.Prof.add_alloc p ~slot:1 1024.;
  Obs.Prof.stop p;
  let r = Obs.Prof.report p in
  let total name =
    match List.find_opt (fun t -> t.Obs.Prof.phase = name) r.Obs.Prof.totals with
    | Some t -> t
    | None -> Alcotest.failf "phase %s missing" name
  in
  let o = total "outer" and i = total "inner" in
  Alcotest.(check bool) "outer accumulated" true (o.Obs.Prof.ns >= 2_000_000L);
  Alcotest.(check bool) "inner accumulated" true (i.Obs.Prof.ns >= 2_000_000L);
  Alcotest.(check int) "outer calls" 1 o.Obs.Prof.calls;
  (* disjoint attribution: phase totals can never exceed slots × wall *)
  let budget = Int64.mul (Int64.of_int (Obs.Prof.slots p)) r.Obs.Prof.wall_ns in
  Alcotest.(check bool) "sum within slots × wall" true
    (Int64.add o.Obs.Prof.ns i.Obs.Prof.ns <= budget);
  Alcotest.(check bool) "attributed fraction in [0,1]" true
    (r.Obs.Prof.attributed >= 0. && r.Obs.Prof.attributed <= 1.);
  Alcotest.(check bool) "accrued alloc counted" true
    (r.Obs.Prof.alloc_bytes >= 1024.);
  (* stop is idempotent: the clock stays frozen *)
  let w = r.Obs.Prof.wall_ns in
  Obs.Prof.stop p;
  Alcotest.(check bool) "stop idempotent" true
    ((Obs.Prof.report p).Obs.Prof.wall_ns = w)

(* The accumulators hold immediate ints and the phase stack is a reused
   array, so once warmed (stack grown, phases interned) a nested
   enter/leave pair must not touch the minor heap at all. *)
let test_prof_enter_leave_alloc_free () =
  let p = Obs.Prof.create ~phases:[ "outer"; "inner" ] ~slots:1 () in
  let outer = Obs.Prof.intern p "outer" in
  let inner = Obs.Prof.intern p "inner" in
  let pair () =
    Obs.Prof.enter p ~slot:0 outer;
    Obs.Prof.enter p ~slot:0 inner;
    Obs.Prof.leave p ~slot:0 inner;
    Obs.Prof.leave p ~slot:0 outer
  in
  pair ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    pair ()
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words over 1000 warmed pairs" 0.
    (w1 -. w0);
  let calls name =
    List.find (fun t -> t.Obs.Prof.phase = name) (Obs.Prof.report p).totals
  in
  Alcotest.(check int) "every entry counted" 1_001 (calls "inner").calls

let test_prof_explorer_parity () =
  (* profiled exploration on two domains (the sharded engine) visits the
     unprofiled graph; the VS spec instance exhausts (~2k states), so
     states, transitions and truncation are scheduling-independent — the
     discovery depth is not, and is not compared *)
  let cfg =
    { (Vsg.default_config ~payloads:[ "a" ] ~universe:2) with
      Vsg.max_views = 2;
      max_sends = 2;
      view_proposals = `All_subsets;
    }
  in
  let gen = Vsg.generative_pure cfg in
  let init = Vsg.Spec.initial (Proc.Set.universe 2) in
  let explore ?prof () =
    let s =
      (Check.Explorer.run gen ~key:Vsg.Spec.state_key ~invariants:[] ~jobs:2
         ~state_rng:true ?prof ~init ())
        .Check.Explorer.stats
    in
    (s.Check.Explorer.states, s.Check.Explorer.transitions,
     s.Check.Explorer.truncated)
  in
  let plain = explore () in
  let prof = Check.Explorer.profile ~jobs:2 in
  let profiled = explore ~prof () in
  Obs.Prof.stop prof;
  let _, _, truncated = plain in
  Alcotest.(check bool) "instance exhausts" false truncated;
  Alcotest.(check bool) "profiling does not perturb the search" true
    (plain = profiled);
  let r = Obs.Prof.report prof in
  Alcotest.(check int) "one slot per worker" 2 r.Obs.Prof.worker_slots;
  let expanded =
    match
      List.find_opt (fun t -> t.Obs.Prof.phase = "expand") r.Obs.Prof.totals
    with
    | Some t -> t.Obs.Prof.calls
    | None -> 0
  in
  Alcotest.(check bool) "expansions were charged" true (expanded > 0);
  (* a too-small profiler is rejected rather than racing on slots *)
  Alcotest.check_raises "slots < jobs rejected"
    (Invalid_argument "Explorer.run: prof has fewer slots than jobs")
    (fun () ->
      ignore (explore ~prof:(Obs.Prof.create ~slots:1 ()) ()))

(* ------------------------------------------------------------------ *)
(* Bench trajectory gate                                                *)
(* ------------------------------------------------------------------ *)

let with_bench_dir files f =
  let dir = Filename.temp_file "obs_bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun (name, content) ->
          let oc = open_out (Filename.concat dir name) in
          output_string oc content;
          close_out oc)
        files;
      f dir)

let bench_snapshot ~sps ~bps =
  Printf.sprintf
    {|{"counters": {}, "gauges": {"e99.x.states_per_sec": %f, "e99.x.bytes_per_state": %f, "e99.x.states": 1000}, "histograms": {}}|}
    sps bps

let test_report_scan_and_check () =
  with_bench_dir
    [
      ("BENCH_E99.json", bench_snapshot ~sps:50_000. ~bps:2_000.);
      ("BENCH_E98.json", "{ not json");
      ("unrelated.txt", "ignored");
    ]
  @@ fun dir ->
  let points, warnings = Obs.Report.scan ~dir in
  Alcotest.(check int) "unparseable snapshot warns, not fails" 1
    (List.length warnings);
  Alcotest.(check (list (pair string (float 1e-6))))
    "trajectory metrics only, labeled"
    [
      ("E99:e99.x.bytes_per_state", 2_000.);
      ("E99:e99.x.states_per_sec", 50_000.);
    ]
    (List.sort compare points);
  let baseline =
    {
      Obs.Report.min_ratio = 0.1;
      max_ratio = 10.0;
      metrics =
        [
          ("E99:e99.x.states_per_sec", 40_000.);
          ("E99:e99.x.bytes_per_state", 1_800.);
        ];
    }
  in
  let r = Obs.Report.check baseline points in
  Alcotest.(check bool) "healthy sweep passes" true (Obs.Report.passed r);
  (* injected regressions: throughput collapse and footprint blow-up *)
  let slow = [ ("E99:e99.x.states_per_sec", 500.);
               ("E99:e99.x.bytes_per_state", 2_000.) ] in
  Alcotest.(check bool) "100x throughput drop fails" false
    (Obs.Report.passed (Obs.Report.check baseline slow));
  let fat = [ ("E99:e99.x.states_per_sec", 50_000.);
              ("E99:e99.x.bytes_per_state", 50_000.) ] in
  Alcotest.(check bool) "25x footprint growth fails" false
    (Obs.Report.passed (Obs.Report.check baseline fat));
  (* a baselined metric silently dropped from the sweep is a failure *)
  let partial = [ ("E99:e99.x.states_per_sec", 50_000.) ] in
  let r = Obs.Report.check baseline partial in
  Alcotest.(check bool) "missing metric fails" false (Obs.Report.passed r);
  Alcotest.(check (list string))
    "and is named" [ "E99:e99.x.bytes_per_state" ] r.Obs.Report.missing;
  (* a fresh, unbaselined metric is reported but not gated *)
  let extra = ("E99:e99.y.states_per_sec", 1.) :: points in
  let r = Obs.Report.check baseline extra in
  Alcotest.(check bool) "fresh metric does not gate" true (Obs.Report.passed r);
  Alcotest.(check (list string))
    "but is listed" [ "E99:e99.y.states_per_sec" ] r.Obs.Report.fresh

let test_report_baseline_roundtrip () =
  let b =
    {
      Obs.Report.min_ratio = 0.25;
      max_ratio = 4.0;
      metrics = [ ("E1:a.states_per_sec", 123.5); ("E2:b.bytes_per_state", 9.) ];
    }
  in
  let path = Filename.temp_file "obs_baseline" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Report.write_baseline ~path b;
  match Obs.Report.load_baseline path with
  | Error msg -> Alcotest.fail msg
  | Ok b' ->
      Alcotest.(check (float 1e-9)) "min_ratio" b.Obs.Report.min_ratio
        b'.Obs.Report.min_ratio;
      Alcotest.(check (float 1e-9)) "max_ratio" b.Obs.Report.max_ratio
        b'.Obs.Report.max_ratio;
      Alcotest.(check (list (pair string (float 1e-9))))
        "metrics" b.Obs.Report.metrics b'.Obs.Report.metrics

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "value round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "fuzz round-trip" `Quick test_json_fuzz_roundtrip;
          Alcotest.test_case "event round-trip" `Quick test_event_roundtrip;
          QCheck_alcotest.to_alcotest prop_event_codec_vs_oracle;
          Alcotest.test_case "int literals = tree codec" `Quick
            test_int_literals_vs_oracle;
          Alcotest.test_case "float literals = tree codec" `Quick
            test_float_literals_vs_oracle;
          Alcotest.test_case "truncations and mutations = tree codec" `Quick
            test_truncations_and_mutations_vs_oracle;
          Alcotest.test_case "jsonl file round-trip" `Quick
            test_jsonl_file_roundtrip;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "seq monotone, interleaved spans" `Quick
            test_seq_monotone_interleaved;
          Alcotest.test_case "memory ring capacity" `Quick
            test_memory_ring_capacity;
        ] );
      ( "exec",
        [
          Alcotest.test_case "one event per step" `Quick
            test_exec_one_event_per_step;
          Alcotest.test_case "sink does not change the run" `Quick
            test_exec_sink_no_behaviour_change;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "snapshot + json" `Quick test_metrics_snapshot;
          Alcotest.test_case "summarize_opt on empty" `Quick
            test_summarize_opt_empty;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "4 domains x 10k events through one sink" `Quick
            test_sink_stress_jsonl;
          Alcotest.test_case "4 domains x 10k bumps into one registry" `Quick
            test_metrics_stress;
          Alcotest.test_case "unboxed series, identical summaries" `Quick
            test_metrics_series_unboxed;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "clean faithful stream passes" `Quick
            test_monitor_clean_stream;
          Alcotest.test_case "No_dedup flagged online" `Quick
            test_monitor_flags_no_dedup;
          Alcotest.test_case "monotone progress" `Quick
            test_monitor_monotone_progress;
        ] );
      ( "prof",
        [
          Alcotest.test_case "scoped phases, disjoint attribution" `Quick
            test_prof_phases_disjoint;
          Alcotest.test_case "warmed enter/leave allocates nothing" `Quick
            test_prof_enter_leave_alloc_free;
          Alcotest.test_case "profiled explorer parity" `Quick
            test_prof_explorer_parity;
        ] );
      ( "report",
        [
          Alcotest.test_case "scan + regression gate" `Quick
            test_report_scan_and_check;
          Alcotest.test_case "baseline round-trip" `Quick
            test_report_baseline_roundtrip;
        ] );
    ]
