(* State records described once, as a typed field list.  See record.mli
   and DESIGN.md §13. *)

open Prelude

type ('m, 's, 'a) field = {
  name : string;
  get : 's -> 'a;
  codec : ('m, 'a) codec;
  equal : 'a -> 'a -> bool;
  permute : ((Proc.t -> Proc.t) -> 'a -> 'a) option;
  family : ('m, 'a) family option;
}

and ('m, 'a) codec = Fixed of 'a Codec.f | Payload of ('m Codec.f -> 'a Codec.f)

and ('m, 'a) family =
  | Family : string -> ('m, 'a) family
  | Nested : ('m, 'a) t -> ('m, 'a) family
  | Per_proc : ('m, 'a) t -> ('m, 'a Proc.Map.t) family

and ('m, 's, 'k) fields =
  | [] : ('m, 's, 's) fields
  | ( :: ) : ('m, 's, 'a) field * ('m, 's, 'k) fields -> ('m, 's, 'a -> 'k) fields

(* What the writer walks: the fields with their codecs built. *)
and ('s, 'k) built =
  | Done : ('s, 's) built
  | Next : ('s -> 'a) * 'a Codec.f * ('s, 'k) built -> ('s, 'a -> 'k) built

(* The fields, with their longest all-[Fixed] suffix built once by [make]:
   a [codec] call rebuilds only up to the last [Payload] field. *)
and ('m, 's, 'k) plan =
  | Built : ('s, 'k) built -> ('m, 's, 'k) plan
  | Field : ('m, 's, 'a) field * ('m, 's, 'k) plan -> ('m, 's, 'a -> 'k) plan

and ('m, 's) t =
  | Record : { make : 'k; fields : ('m, 's, 'k) fields; plan : ('m, 's, 'k) plan }
      -> ('m, 's) t

let field ?permute ?family name get codec equal =
  { name; get; codec; equal; permute; family }

let rec plan : type m s k. (m, s, k) fields -> (m, s, k) plan = function
  | [] -> Built Done
  | f :: rest -> (
      match (f.codec, plan rest) with
      | Fixed c, Built b -> Built (Next (f.get, c, b))
      | _, p -> Field (f, p))

let make k fields = Record { make = k; fields; plan = plan fields }
let instance f m = match f.codec with Fixed c -> c | Payload c -> c m

let rec build : type m s k. (m, s, k) plan -> m Codec.f -> (s, k) built =
 fun p m -> match p with Built b -> b | Field (f, p) -> Next (f.get, instance f m, build p m)

let rec write : type s k. (s, k) built -> Codec.wb -> s -> unit =
 fun b w s ->
  match b with
  | Done -> ()
  | Next (get, c, b) ->
      c.Codec.wr w (get s);
      write b w s

let rec read : type s k. (s, k) built -> Codec.rb -> k -> s =
 fun b r k -> match b with Done -> k | Next (_, c, b) -> read b r (k (c.Codec.rd r))

let codec (Record { make; plan; _ }) m =
  let b = build plan m in
  { Codec.wr = (fun w s -> write b w s); rd = (fun r -> read b r make) }

let rec diff_fields : type m s k. (m, s, k) fields -> s -> s -> string option =
 fun fields a b ->
  match fields with
  | [] -> None
  | f :: rest ->
      let x = f.get a and y = f.get b in
      if x == y || f.equal x y then diff_fields rest a b else Some f.name

let diff (Record { fields; _ }) a b = diff_fields fields a b
let equal d a b = a == b || Option.is_none (diff d a b)

let rec permute_fields :
    type m s k. (m, s, k) fields -> (Proc.t -> Proc.t) -> s -> k -> s =
 fun fields pi s k ->
  match fields with
  | [] -> k
  | f :: rest ->
      let x = f.get s in
      let x = match f.permute with None -> x | Some p -> p pi x in
      permute_fields rest pi s (k x)

let permute (Record { make; fields; _ }) pi s = permute_fields fields pi s make

(* Each family-tagged field's image function, in field order.  ([[]] and
   [::] build field lists here, so plain lists go through [List].) *)
let rec parts :
    type m s k. (m, s, k) fields -> m Codec.f -> (string * (s -> string)) list =
 fun fields m ->
  match fields with
  | [] -> List.[]
  | f :: rest -> (
      let tail = parts rest m in
      let lift via = List.map (fun (fam, part) -> (fam, fun s -> via part (f.get s))) in
      match f.family with
      | None -> tail
      | Some (Family fam) ->
          let c = instance f m in
          List.cons (fam, fun s -> Codec.image c (f.get s)) tail
      | Some (Nested (Record sub)) -> lift Fun.id (parts sub.fields m) @ tail
      | Some (Per_proc (Record sub)) ->
          let per_proc part map =
            Proc.Map.fold (fun p x acc -> acc ^ Codec.image Codec.proc p ^ part x) map ""
          in
          lift per_proc (parts sub.fields m) @ tail)

(* Fields naming one family are adjacent, so grouping merges neighbours. *)
let project (Record { fields; _ }) m =
  let parts = parts fields m in
  fun s ->
    List.fold_right
      (fun (fam, img) acc ->
        match acc with
        | List.((f, v) :: rest) when String.equal f fam -> List.cons (f, img s ^ v) rest
        | _ -> List.cons (fam, img s) acc)
      parts List.[]
