open Prelude

type 'm t =
  | Fwd of { gid : Gid.t; fsn : int; payload : 'm }
  | Seq of { gid : Gid.t; sn : int; origin : Proc.t; payload : 'm }
  | Ack of { gid : Gid.t; upto : int }
  | Stable of { gid : Gid.t; upto : int }

let gid = function
  | Fwd { gid; _ } | Seq { gid; _ } | Ack { gid; _ } | Stable { gid; _ } -> gid

let is_fwd = function Fwd _ -> true | Seq _ | Ack _ | Stable _ -> false

let tag = function Fwd _ -> 0 | Seq _ -> 1 | Ack _ -> 2 | Stable _ -> 3

let permute pi = function
  | Seq s -> Seq { s with origin = pi s.origin }
  | (Fwd _ | Ack _ | Stable _) as p -> p

let compare cmp a b =
  match (a, b) with
  | Fwd x, Fwd y -> (
      match Gid.compare x.gid y.gid with
      | 0 -> (
          match Int.compare x.fsn y.fsn with
          | 0 -> cmp x.payload y.payload
          | c -> c)
      | c -> c)
  | Seq x, Seq y -> (
      match Gid.compare x.gid y.gid with
      | 0 -> (
          match Int.compare x.sn y.sn with
          | 0 -> (
              match Proc.compare x.origin y.origin with
              | 0 -> cmp x.payload y.payload
              | c -> c)
          | c -> c)
      | c -> c)
  | Ack x, Ack y -> (
      match Gid.compare x.gid y.gid with 0 -> Int.compare x.upto y.upto | c -> c)
  | Stable x, Stable y -> (
      match Gid.compare x.gid y.gid with 0 -> Int.compare x.upto y.upto | c -> c)
  | a, b -> Int.compare (tag a) (tag b)

let pp pp_m ppf = function
  | Fwd { gid; fsn; payload } ->
      Format.fprintf ppf "fwd[%a]#%d(%a)" Gid.pp gid fsn pp_m payload
  | Seq { gid; sn; origin; payload } ->
      Format.fprintf ppf "seq[%a]#%d(%a from %a)" Gid.pp gid sn pp_m payload
        Proc.pp origin
  | Ack { gid; upto } -> Format.fprintf ppf "ack[%a]≤%d" Gid.pp gid upto
  | Stable { gid; upto } -> Format.fprintf ppf "stable[%a]≤%d" Gid.pp gid upto

let to_buffer m buf pkt =
  let add = Buffer.add_string buf in
  let head tag gid =
    add tag;
    Gid.to_buffer buf gid;
    Buffer.add_char buf ']'
  in
  match pkt with
  | Fwd { gid; fsn; payload } ->
      head "fwd[" gid;
      Buffer.add_char buf '#';
      add (string_of_int fsn);
      Buffer.add_char buf '(';
      m buf payload;
      Buffer.add_char buf ')'
  | Seq { gid; sn; origin; payload } ->
      head "seq[" gid;
      Buffer.add_char buf '#';
      add (string_of_int sn);
      Buffer.add_char buf '(';
      m buf payload;
      add " from ";
      Proc.to_buffer buf origin;
      Buffer.add_char buf ')'
  | Ack { gid; upto } ->
      head "ack[" gid;
      add "≤";
      add (string_of_int upto)
  | Stable { gid; upto } ->
      head "stable[" gid;
      add "≤";
      add (string_of_int upto)

(* Flat canonical codec: tag byte + constructor fields in declaration
   order; canonical because every field codec is. *)
let codec (m : 'm Check.Codec.f) : 'm t Check.Codec.f =
  let open Check.Codec in
  {
    wr =
      (fun b -> function
        | Fwd { gid; fsn; payload } ->
            byte.wr b 0;
            Check.Codec.gid.wr b gid;
            int.wr b fsn;
            m.wr b payload
        | Seq { gid; sn; origin; payload } ->
            byte.wr b 1;
            Check.Codec.gid.wr b gid;
            int.wr b sn;
            proc.wr b origin;
            m.wr b payload
        | Ack { gid; upto } ->
            byte.wr b 2;
            Check.Codec.gid.wr b gid;
            int.wr b upto
        | Stable { gid; upto } ->
            byte.wr b 3;
            Check.Codec.gid.wr b gid;
            int.wr b upto);
    rd =
      (fun r ->
        match byte.rd r with
        | 0 ->
            let gid = Check.Codec.gid.rd r in
            let fsn = int.rd r in
            let payload = m.rd r in
            Fwd { gid; fsn; payload }
        | 1 ->
            let gid = Check.Codec.gid.rd r in
            let sn = int.rd r in
            let origin = proc.rd r in
            let payload = m.rd r in
            Seq { gid; sn; origin; payload }
        | 2 ->
            let gid = Check.Codec.gid.rd r in
            let upto = int.rd r in
            Ack { gid; upto }
        | 3 ->
            let gid = Check.Codec.gid.rd r in
            let upto = int.rd r in
            Stable { gid; upto }
        | _ -> raise (Malformed "packet tag"));
  }
