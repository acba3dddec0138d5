open Prelude

type payload = string

type state = {
  pending : payload Seqs.t Proc.Map.t;
  order : (payload * Proc.t) Seqs.t;
  next : int Proc.Map.t;
}

type action =
  | Bcast of Proc.t * payload
  | Order of payload * Proc.t
  | Brcv of { origin : Proc.t; dst : Proc.t; payload : payload }

let initial = { pending = Proc.Map.empty; order = Seqs.empty; next = Proc.Map.empty }

let pending_of s p = Proc.Map.find_or ~default:Seqs.empty p s.pending
let next_of s p = Proc.Map.find_or ~default:1 p s.next

let enabled s = function
  | Bcast (_, _) -> true
  | Order (a, p) -> (
      match Seqs.head_opt (pending_of s p) with
      | Some a' -> String.equal a a'
      | None -> false)
  | Brcv { origin; dst; payload } -> (
      match Seqs.nth1_opt s.order (next_of s dst) with
      | Some (a, q) -> String.equal a payload && Proc.equal q origin
      | None -> false)

let step s = function
  | Bcast (p, a) ->
      { s with pending = Proc.Map.add p (Seqs.append (pending_of s p) a) s.pending }
  | Order (a, p) ->
      let rest = Seqs.remove_head (pending_of s p) in
      let pending =
        if Seqs.is_empty rest then Proc.Map.remove p s.pending
        else Proc.Map.add p rest s.pending
      in
      { s with pending; order = Seqs.append s.order (a, p) }
  | Brcv { dst; _ } -> { s with next = Proc.Map.add dst (next_of s dst + 1) s.next }

let is_external = function
  | Bcast _ | Brcv _ -> true
  | Order _ -> false

(* The state described once (DESIGN.md §13): codec, equality, symmetry
   transport and the footprint families derive from these fields, in the
   codec's field order.  Processors appear only as map keys and order
   attributions; the spec is equivariant (audited by Analysis.Symmetry)
   and feeds orbit canonicalization. *)
let record : (unit, state) Check.Record.t =
  let open Check.Record in
  let module C = Check.Codec in
  make
    (fun pending order next -> { pending; order; next })
    [
      field "pending" (fun s -> s.pending) (Fixed C.(proc_map (seqs string)))
        (Proc.Map.equal (Seqs.equal String.equal)) ~permute:Proc.Map.rekey
        ~family:(Family "pending");
      field "order" (fun s -> s.order) (Fixed C.(seqs (pair string proc)))
        (Seqs.equal (fun (x, p) (y, q) -> String.equal x y && Proc.equal p q))
        ~permute:(fun pi -> Seqs.applytoall (fun (a, p) -> (a, pi p)))
        ~family:(Family "order");
      field "next" (fun s -> s.next) (Fixed C.(proc_map int)) (Proc.Map.equal Int.equal)
        ~permute:Proc.Map.rekey ~family:(Family "next");
    ]

let equal_state = Check.Record.equal record
let permute = Check.Record.permute record
let codec_state = Check.Record.codec record Check.Codec.unit

let permute_action pi = function
  | Bcast (p, a) -> Bcast (pi p, a)
  | Order (a, p) -> Order (a, pi p)
  | Brcv { origin; dst; payload } ->
      Brcv { origin = pi origin; dst = pi dst; payload }

let pp_state ppf s =
  Format.fprintf ppf "@[<v>order=%a@ next=[%a]@]"
    (Seqs.pp (fun ppf (a, p) -> Format.fprintf ppf "%s@%a" a Proc.pp p))
    s.order
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (p, n) -> Format.fprintf ppf "%a↦%d" Proc.pp p n))
    (Proc.Map.bindings s.next)

(* Canonical full-state rendering — injective because payloads print
   verbatim — used as the dedup key for exhaustive exploration. *)
let state_key s =
  let buf = Buffer.create 128 in
  let semi () = Buffer.add_char buf ';' in
  Buffer.add_string buf "pd[";
  Fill.sep_bindings ~sep:semi Proc.Map.fold
    (fun p q ->
      Proc.to_buffer buf p;
      Buffer.add_char buf ':';
      Seqs.to_buffer Buffer.add_string buf q)
    s.pending;
  Buffer.add_string buf "]|or";
  Seqs.to_buffer
    (fun buf (a, p) ->
      Buffer.add_string buf a;
      Buffer.add_char buf '@';
      Proc.to_buffer buf p)
    buf s.order;
  Buffer.add_string buf "|nx[";
  Fill.sep_bindings ~sep:semi Proc.Map.fold
    (fun p n ->
      Proc.to_buffer buf p;
      Buffer.add_char buf '=';
      Buffer.add_string buf (string_of_int n))
    s.next;
  Buffer.add_char buf ']';
  Buffer.contents buf

let pp_action ppf = function
  | Bcast (p, a) -> Format.fprintf ppf "bcast(%s)_%a" a Proc.pp p
  | Order (a, p) -> Format.fprintf ppf "to-order(%s,%a)" a Proc.pp p
  | Brcv { origin; dst; payload } ->
      Format.fprintf ppf "brcv(%s)_%a,%a" payload Proc.pp origin Proc.pp dst

let invariant_next_bounded =
  Ioa.Invariant.make "TO: report pointers bounded by order" (fun s ->
      Proc.Map.for_all (fun _ n -> n <= Seqs.length s.order + 1) s.next)
