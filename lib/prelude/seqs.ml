module Imap = Map.Make (Int)

(* Elements live at integer slots [start, stop); slot arithmetic is hidden
   behind the 1-based interface the paper uses. *)
type 'a t = { slots : 'a Imap.t; start : int; stop : int }

let empty = { slots = Imap.empty; start = 0; stop = 0 }
let is_empty a = a.start = a.stop
let length a = a.stop - a.start

let nth1_opt a i =
  if i < 1 || i > length a then None else Imap.find_opt (a.start + i - 1) a.slots

let nth1 a i =
  match nth1_opt a i with
  | Some x -> x
  | None -> invalid_arg "Seqs.nth1: index out of range"

let head_opt a = nth1_opt a 1

let head a =
  match head_opt a with
  | Some x -> x
  | None -> invalid_arg "Seqs.head: empty sequence"

let append a x = { a with slots = Imap.add a.stop x a.slots; stop = a.stop + 1 }

let remove_head a =
  if is_empty a then invalid_arg "Seqs.remove_head: empty sequence";
  { a with slots = Imap.remove a.start a.slots; start = a.start + 1 }

let to_list a =
  let rec go i acc = if i < 1 then acc else go (i - 1) (nth1 a i :: acc) in
  go (length a) []

let of_list l = List.fold_left append empty l

let sub1 a i j =
  if i > j then begin
    if i < 1 || i > length a + 1 || j < 0 then
      invalid_arg "Seqs.sub1: index out of range";
    empty
  end
  else if i < 1 || j > length a then invalid_arg "Seqs.sub1: index out of range"
  else begin
    let rec go k acc = if k > j then acc else go (k + 1) (append acc (nth1 a k)) in
    go i empty
  end

let concat a b =
  let rec go i acc =
    if i > length b then acc else go (i + 1) (append acc (nth1 b i))
  in
  go 1 a

(* Slots are contiguous and ascending, so walking the map visits the
   elements in sequence order — one traversal, no per-index lookup. *)
let fold_left f init a = Imap.fold (fun _ x acc -> f acc x) a.slots init
let iter f a = Imap.iter (fun _ x -> f x) a.slots

let exists p a =
  let rec go i = i <= length a && (p (nth1 a i) || go (i + 1)) in
  go 1

let for_all p a = not (exists (fun x -> not (p x)) a)
let mem ~equal x a = exists (equal x) a

let is_prefix ~equal a ~of_:b =
  length a <= length b
  &&
  let rec go i = i > length a || (equal (nth1 a i) (nth1 b i) && go (i + 1)) in
  go 1

let consistent ~equal l =
  let comparable a b = is_prefix ~equal a ~of_:b || is_prefix ~equal b ~of_:a in
  let rec go = function
    | [] -> true
    | a :: rest -> List.for_all (comparable a) rest && go rest
  in
  go l

let lub ~equal l =
  if l = [] then invalid_arg "Seqs.lub: empty collection";
  if not (consistent ~equal l) then invalid_arg "Seqs.lub: inconsistent collection";
  List.fold_left (fun best a -> if length a > length best then a else best)
    (List.hd l) l

let applytoall f a = fold_left (fun acc x -> append acc (f x)) empty a
let filter keep a = fold_left (fun acc x -> if keep x then append acc x else acc) empty a
let count p a = fold_left (fun n x -> if p x then n + 1 else n) 0 a

let equal eq a b =
  length a = length b
  &&
  let rec go i = i > length a || (eq (nth1 a i) (nth1 b i) && go (i + 1)) in
  go 1

let compare cmp a b =
  let rec go i =
    if i > length a && i > length b then 0
    else if i > length a then -1
    else if i > length b then 1
    else
      match cmp (nth1 a i) (nth1 b i) with 0 -> go (i + 1) | c -> c
  in
  go 1

let pp pp_elt ppf a =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_elt)
    (to_list a)

let to_buffer elt buf a =
  Buffer.add_char buf '[';
  Imap.iter
    (fun i x ->
      if i > a.start then Buffer.add_string buf "; ";
      elt buf x)
    a.slots;
  Buffer.add_char buf ']'

let common_prefix ~equal l =
  match l with
  | [] -> invalid_arg "Seqs.common_prefix: empty collection"
  | first :: rest ->
      let upto =
        List.fold_left
          (fun k a ->
            let rec go i =
              if i > k || i > length a then i - 1
              else if equal (nth1 first i) (nth1 a i) then go (i + 1)
              else i - 1
            in
            go 1)
          (length first) rest
      in
      sub1 first 1 upto
