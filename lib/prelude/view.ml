type t = { id : Gid.t; set : Proc.Set.t }

let make ~id ~set =
  if Proc.Set.is_empty set then invalid_arg "View.make: empty membership set";
  { id; set }

let initial p0 = make ~id:Gid.g0 ~set:p0
let id v = v.id
let set v = v.set
let mem p v = Proc.Set.mem p v.set
let cardinal v = Proc.Set.cardinal v.set

let compare a b =
  match Gid.compare a.id b.id with 0 -> Proc.Set.compare a.set b.set | c -> c

let equal a b = compare a b = 0
let intersects v w = not (Proc.Set.is_empty (Proc.Set.inter v.set w.set))
let majority_intersects v ~of_:w = Proc.Set.majority_of ~part:v.set ~whole:w.set
let permute pi v = { v with set = Proc.Set.map pi v.set }
let pp ppf v = Format.fprintf ppf "⟨%a,%a⟩" Gid.pp v.id Proc.Set.pp v.set
let to_string v = Format.asprintf "%a" pp v

let to_buffer buf v =
  Buffer.add_string buf "⟨";
  Gid.to_buffer buf v.id;
  Buffer.add_char buf ',';
  Proc.Set.to_buffer buf v.set;
  Buffer.add_string buf "⟩"

module Set = struct
  include Stdlib.Set.Make (struct
    type nonrec t = t

    let compare = compare
  end)

  let pp ppf s =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         pp)
      (elements s)

  let to_buffer buf s =
    Buffer.add_char buf '{';
    Fill.sep_elements ~sep:(fun () -> Buffer.add_string buf "; ") fold (to_buffer buf) s;
    Buffer.add_char buf '}'

  let above g s = filter (fun v -> Gid.gt v.id g) s

  let max_id s =
    fold
      (fun v best ->
        match best with
        | None -> Some v
        | Some b -> if Gid.gt v.id b.id then Some v else best)
      s None
end
