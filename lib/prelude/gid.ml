type t = int

let g0 = 0
let compare = Int.compare
let equal = Int.equal
let lt a b = a < b
let le a b = a <= b
let gt a b = a > b
let ge a b = a >= b
let succ g = g + 1
let max = Stdlib.max
let pp ppf g = Format.fprintf ppf "g%d" g
let to_string g = "g" ^ string_of_int g

let to_buffer buf g =
  Buffer.add_char buf 'g';
  Buffer.add_string buf (string_of_int g)

module Map = Stdlib.Map.Make (Int)
module Set = Stdlib.Set.Make (Int)

module Bot = struct
  type nonrec t = t option

  let bot = None
  let of_gid g = Some g

  let equal a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> Int.equal x y
    | None, Some _ | Some _, None -> false

  let lt_gid b g = match b with None -> true | Some x -> x < g

  let pp ppf = function
    | None -> Format.pp_print_string ppf "⊥"
    | Some g -> pp ppf g

  let to_buffer buf = function
    | None -> Buffer.add_string buf "⊥"
    | Some g -> to_buffer buf g
end
