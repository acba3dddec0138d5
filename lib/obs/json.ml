type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printer: escapes go straight into the output buffer; runs of plain  *)
(* characters are copied with one [add_substring] each.                *)
(* ------------------------------------------------------------------ *)

let hex = "0123456789abcdef"

let add_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      if i > !start then Buffer.add_substring buf s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex.[Char.code c lsr 4];
          Buffer.add_char buf hex.[Char.code c land 15]);
      start := i + 1
    end
  done;
  if !start < n then Buffer.add_substring buf s !start (n - !start);
  Buffer.add_char buf '"'

(* Digits of [n <= 0], most significant first; working on the negative
   side covers [min_int] without overflow. *)
let rec add_neg buf n =
  if n <= -10 then add_neg buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg buf n
  end
  else add_neg buf (-n)

(* Shortest round-trip repr, forced to contain '.' or 'e' so the parser
   brings it back as a float. *)
let float_repr f =
  let s = Printf.sprintf "%.17g" f in
  let s =
    let shorter = Printf.sprintf "%.12g" f in
    if float_of_string shorter = f then shorter else s
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

let add_float buf f =
  Buffer.add_string buf (if Float.is_finite f then float_repr f else "null")

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> add_int buf n
  | Float f -> add_float buf f
  | Str s -> add_string buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over the input string, dispatching on     *)
(* characters.                                                         *)
(* ------------------------------------------------------------------ *)

exception Parse of string

(* The input and the read position, threaded through top-level
   functions so a parse allocates no closures. *)
type cursor = { s : string; n : int; mutable pos : int }

let fail c msg = raise (Parse (Printf.sprintf "%s at offset %d" msg c.pos))

let rec skip_ws c =
  if c.pos < c.n then
    match String.unsafe_get c.s c.pos with
    | ' ' | '\t' | '\n' | '\r' ->
        c.pos <- c.pos + 1;
        skip_ws c
    | _ -> ()

let at c ch = c.pos < c.n && String.unsafe_get c.s c.pos = ch

let expect c ch =
  if at c ch then c.pos <- c.pos + 1
  else fail c (Printf.sprintf "expected %C" ch)

let literal c word v =
  let l = String.length word in
  let rec same i = i = l || (c.s.[c.pos + i] = word.[i] && same (i + 1)) in
  if c.pos + l <= c.n && same 0 then begin
    c.pos <- c.pos + l;
    v
  end
  else fail c (Printf.sprintf "expected %s" word)

(* One escape sequence, [c.pos] just past the backslash. *)
let unescape c buf =
  if c.pos >= c.n then fail c "unterminated escape";
  let e = c.s.[c.pos] in
  c.pos <- c.pos + 1;
  match e with
  | '"' -> Buffer.add_char buf '"'
  | '\\' -> Buffer.add_char buf '\\'
  | '/' -> Buffer.add_char buf '/'
  | 'n' -> Buffer.add_char buf '\n'
  | 't' -> Buffer.add_char buf '\t'
  | 'r' -> Buffer.add_char buf '\r'
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'u' ->
      if c.pos + 4 > c.n then fail c "truncated \\u escape";
      let hex = String.sub c.s c.pos 4 in
      c.pos <- c.pos + 4;
      let code =
        try int_of_string ("0x" ^ hex) with _ -> fail c "bad \\u escape"
      in
      (* The encoder only emits \u for control characters; decode the
         Latin-1 range and replace anything above. *)
      Buffer.add_char buf (if code < 0x100 then Char.chr code else '?')
  | _ -> fail c "unknown escape"

(* End of the run of plain string bytes from [i]: the next '"' or '\\',
   or [n]. *)
let rec plain s n i =
  if i >= n then i
  else
    match String.unsafe_get s i with '"' | '\\' -> i | _ -> plain s n (i + 1)

(* A string with no escape is one [String.sub]; otherwise the runs
   between escapes are copied whole into a buffer. *)
let parse_string c =
  expect c '"';
  let start = c.pos in
  let stop = plain c.s c.n start in
  if stop >= c.n then begin
    c.pos <- c.n;
    fail c "unterminated string"
  end
  else if c.s.[stop] = '"' then begin
    c.pos <- stop + 1;
    String.sub c.s start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf c.s start (stop - start);
    c.pos <- stop + 1;
    let rec go () =
      unescape c buf;
      let start = c.pos in
      let stop = plain c.s c.n start in
      Buffer.add_substring buf c.s start (stop - start);
      if stop >= c.n then begin
        c.pos <- c.n;
        fail c "unterminated string"
      end;
      c.pos <- stop + 1;
      if c.s.[stop] = '"' then Buffer.contents buf else go ()
    in
    go ()
  end

(* Digits of [s] in [i, stop), accumulated on the negative side (which
   reaches [min_int]); [None] on a non-digit or overflow. *)
let rec neg_digits s stop i acc =
  if i = stop then Some acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as ch ->
        let d = Char.code ch - 48 in
        if acc < min_int / 10 then None
        else
          let acc10 = acc * 10 in
          if acc10 < min_int + d then None
          else neg_digits s stop (i + 1) (acc10 - d)
    | _ -> None

(* [int_of_string]'s rule for what [parse_number] scans (digits and
   signs): one optional sign, then at least one digit, in range. *)
let int_literal s start stop =
  let neg = s.[start] = '-' in
  let first = if neg || s.[start] = '+' then start + 1 else start in
  if first >= stop then None
  else
    match neg_digits s stop first 0 with
    | None -> None
    | Some acc ->
        if neg then Some acc else if acc = min_int then None else Some (-acc)

(* Scan the number characters from [c.pos]; [true] if one of them marks
   a float. *)
let rec scan_number c is_float =
  if c.pos >= c.n then is_float
  else
    match String.unsafe_get c.s c.pos with
    | '0' .. '9' | '-' | '+' ->
        c.pos <- c.pos + 1;
        scan_number c is_float
    | '.' | 'e' | 'E' ->
        c.pos <- c.pos + 1;
        scan_number c true
    | _ -> is_float

let parse_number c =
  let start = c.pos in
  if scan_number c false then
    match float_of_string_opt (String.sub c.s start (c.pos - start)) with
    | Some f -> Float f
    | None -> fail c "bad float literal"
  else if c.pos = start then fail c "bad int literal"
  else
    match int_literal c.s start c.pos with
    | Some i -> Int i
    | None -> fail c "bad int literal"

let rec parse_value c =
  skip_ws c;
  if c.pos >= c.n then fail c "unexpected end of input";
  match String.unsafe_get c.s c.pos with
  | '"' -> Str (parse_string c)
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else List (elems c [])
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else Obj (fields c [])
  | _ -> parse_number c

and elems c acc =
  let v = parse_value c in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    elems c (v :: acc)
  end
  else if at c ']' then begin
    c.pos <- c.pos + 1;
    List.rev (v :: acc)
  end
  else fail c "expected ',' or ']'"

and fields c acc =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let f = (k, parse_value c) in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    fields c (f :: acc)
  end
  else if at c '}' then begin
    c.pos <- c.pos + 1;
    List.rev (f :: acc)
  end
  else fail c "expected ',' or '}'"

let of_string s =
  let c = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos < c.n then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse msg -> Error msg

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b -> Float.equal a b
  | Str a, Str b -> String.equal a b
  | List a, List b -> ( try List.for_all2 equal a b with Invalid_argument _ -> false)
  | Obj a, Obj b -> (
      try
        List.for_all2
          (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb)
          a b
      with Invalid_argument _ -> false)
  | _ -> false
