include Map.Make (struct
  type t = Proc.t * Gid.t

  let compare (p, g) (p', g') =
    match Proc.compare p p' with 0 -> Gid.compare g g' | c -> c
end)

let find_or ~default k m = match find_opt k m with Some v -> v | None -> default
let rekey pi m = fold (fun (p, g) v acc -> add (pi p, g) v acc) m empty
