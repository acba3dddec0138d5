(* Format's rule for a cut in the formatter's outermost box, as traced
   through [Format.advance_left]: a cut breaks as soon as the text queued
   after it reaches the space left on the line, and the size of the last
   cut is only known at the flush, where it is taken as infinite.  A break
   writes a newline and no indentation (the outermost box has offset 0).
   Columns count bytes, as [Format] does. *)
let margin = 78

type t = { buf : Buffer.t; start : int; mutable cuts : int list }

let start buf = { buf; start = Buffer.length buf; cuts = [] }
let cut t = t.cuts <- Buffer.length t.buf :: t.cuts

let finish t =
  if t.cuts <> [] then begin
    let buf = t.buf in
    let text = Buffer.sub buf t.start (Buffer.length buf - t.start) in
    Buffer.truncate buf t.start;
    (* [from]: the offset in [text] written so far; [col]: its column. *)
    let rec go col from = function
      | [] -> Buffer.add_substring buf text from (String.length text - from)
      | c :: rest ->
          let c = c - t.start in
          Buffer.add_substring buf text from (c - from);
          let col = col + c - from in
          let len = match rest with [] -> max_int | n :: _ -> n - t.start - c in
          if len >= margin - col then begin
            Buffer.add_char buf '\n';
            go 0 c rest
          end
          else go col c rest
    in
    go 0 0 (List.rev t.cuts)
  end

let sep_bindings ~sep fold f m =
  ignore
    (fold
       (fun k v first ->
         if not first then sep ();
         f k v;
         false)
       m true)

let sep_elements ~sep fold f s =
  ignore
    (fold
       (fun x first ->
         if not first then sep ();
         f x;
         false)
       s true)
