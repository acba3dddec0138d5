type payload = string
type content = payload Label.Map.t

type t = {
  con : content;
  ord : Label.t Seqs.t;
  next : int;
  high : Gid.t;
}

let make ~con ~ord ~next ~high =
  if next < 1 then invalid_arg "Summary.make: next must be positive";
  { con; ord; next; high }

let compare a b =
  match Label.Map.compare String.compare a.con b.con with
  | 0 -> (
      match Seqs.compare Label.compare a.ord b.ord with
      | 0 -> (
          match Int.compare a.next b.next with
          | 0 -> Gid.compare a.high b.high
          | c -> c)
      | c -> c)
  | c -> c

let equal a b = compare a b = 0

(* Injective whenever payload strings are distinguishable: summaries render
   into the exhaustive explorer's dedup keys (via {!To_msg.pp}), so the full
   [con] binding list is printed, not just its cardinality. *)
let pp ppf x =
  Format.fprintf ppf "{con=[%a]; ord=%a; next=%d; high=%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       (fun ppf (l, a) -> Format.fprintf ppf "%a=%s" Label.pp l a))
    (Label.Map.bindings x.con)
    (Seqs.pp Label.pp) x.ord x.next Gid.pp x.high

let to_buffer buf x =
  Buffer.add_string buf "{con=[";
  Fill.sep_bindings
    ~sep:(fun () -> Buffer.add_char buf ',')
    Label.Map.fold
    (fun l a ->
      Label.to_buffer buf l;
      Buffer.add_char buf '=';
      Buffer.add_string buf a)
    x.con;
  Buffer.add_string buf "]; ord=";
  Seqs.to_buffer Label.to_buffer buf x.ord;
  Buffer.add_string buf "; next=";
  Buffer.add_string buf (string_of_int x.next);
  Buffer.add_string buf "; high=";
  Gid.to_buffer buf x.high;
  Buffer.add_char buf '}'

type gotstate = t Proc.Map.t

let knowncontent y =
  Proc.Map.fold (fun _ x acc -> Label.Map.union_left acc x.con) y Label.Map.empty

let nonempty name y = if Proc.Map.is_empty y then invalid_arg ("Summary." ^ name)

let maxprimary y =
  nonempty "maxprimary: empty gotstate" y;
  Proc.Map.fold (fun _ x acc -> Gid.max x.high acc) y Gid.g0

let maxnextconfirm y =
  nonempty "maxnextconfirm: empty gotstate" y;
  Proc.Map.fold (fun _ x acc -> Stdlib.max x.next acc) y 1

let reps y =
  if Proc.Map.is_empty y then Proc.Set.empty
  else begin
    let high = maxprimary y in
    Proc.Map.fold
      (fun q x acc -> if Gid.equal x.high high then Proc.Set.add q acc else acc)
      y Proc.Set.empty
  end

let chosenrep y =
  nonempty "chosenrep: empty gotstate" y;
  Proc.Set.min_elt (reps y)

let shortorder y = (Proc.Map.find (chosenrep y) y).ord

let fullorder y =
  let short = shortorder y in
  let in_short l = Seqs.mem ~equal:Label.equal l short in
  let rest =
    Label.Map.fold
      (fun l _ acc -> if in_short l then acc else Label.Set.add l acc)
      (knowncontent y) Label.Set.empty
  in
  Label.Set.fold (fun l acc -> Seqs.append acc l) rest short
