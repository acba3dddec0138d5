type t = int

let compare = Int.compare
let equal = Int.equal
let pp ppf p = Format.fprintf ppf "p%d" p
let to_string p = "p" ^ string_of_int p

let to_buffer buf p =
  Buffer.add_char buf 'p';
  Buffer.add_string buf (string_of_int p)

module Set = struct
  include Stdlib.Set.Make (Int)

  let pp ppf s =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         pp)
      (elements s)

  let to_buffer buf s =
    Buffer.add_char buf '{';
    let first = ref true in
    iter
      (fun p ->
        if !first then first := false else Buffer.add_char buf ',';
        Buffer.add_char buf 'p';
        Buffer.add_string buf (string_of_int p))
      s;
    Buffer.add_char buf '}'

  let universe n =
    if n < 0 then invalid_arg "Proc.Set.universe: negative size";
    List.init n Fun.id |> of_list

  let majority_of ~part ~whole = 2 * cardinal (inter part whole) > cardinal whole

  let nonempty_subsets s =
    let add_elt elt subsets =
      List.rev_append subsets (List.rev_map (add elt) subsets)
    in
    fold add_elt s [ empty ] |> List.filter (fun sub -> not (is_empty sub))
end

module Map = struct
  include Stdlib.Map.Make (Int)

  let find_or ~default p m = match find_opt p m with Some v -> v | None -> default
  let rekey pi m = fold (fun p v acc -> add (pi p) v acc) m empty
end
