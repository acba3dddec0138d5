type t = { id : Gid.t; seqno : int; origin : Proc.t }

let make ~id ~seqno ~origin =
  if seqno < 1 then invalid_arg "Label.make: seqno must be positive";
  { id; seqno; origin }

let compare a b =
  match Gid.compare a.id b.id with
  | 0 -> (
      match Int.compare a.seqno b.seqno with
      | 0 -> Proc.compare a.origin b.origin
      | c -> c)
  | c -> c

let equal a b = compare a b = 0

let pp ppf l =
  Format.fprintf ppf "⟨%a,%d,%a⟩" Gid.pp l.id l.seqno Proc.pp l.origin

let to_string l = Format.asprintf "%a" pp l

let to_buffer buf l =
  Buffer.add_string buf "⟨";
  Gid.to_buffer buf l.id;
  Buffer.add_char buf ',';
  Buffer.add_string buf (string_of_int l.seqno);
  Buffer.add_char buf ',';
  Proc.to_buffer buf l.origin;
  Buffer.add_string buf "⟩"

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Stdlib.Set.Make (Ord)

module Map = struct
  include Stdlib.Map.Make (Ord)

  let union_left a b = union (fun _ x _ -> Some x) a b
end
