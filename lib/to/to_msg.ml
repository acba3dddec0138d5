(** The message alphabet the TO application sends through DVS (Section 6.1):
    [C ∪ S] — labelled client messages and state-exchange summaries.
    Client payloads ([A] in the paper) are opaque strings. *)

open Prelude

type payload = string

type t =
  | Data of Label.t * payload  (** an element of [C = L × A] *)
  | Summ of Summary.t  (** an element of [S] *)

let compare a b =
  match (a, b) with
  | Data (l, x), Data (l', x') -> (
      match Label.compare l l' with 0 -> String.compare x x' | c -> c)
  | Data _, Summ _ -> -1
  | Summ _, Data _ -> 1
  | Summ x, Summ y -> Summary.compare x y

let equal a b = compare a b = 0

let pp ppf = function
  | Data (l, x) -> Format.fprintf ppf "⟨%a,%s⟩" Label.pp l x
  | Summ x -> Format.fprintf ppf "summary%a" Summary.pp x

let to_buffer buf = function
  | Data (l, x) ->
      Buffer.add_string buf "⟨";
      Label.to_buffer buf l;
      Buffer.add_char buf ',';
      Buffer.add_string buf x;
      Buffer.add_string buf "⟩"
  | Summ x ->
      Buffer.add_string buf "summary";
      Summary.to_buffer buf x

let is_summary = function Summ _ -> true | Data _ -> false

(* Flat canonical codec: tag byte + constructor payload; canonical
   because the label, summary and string codecs are. *)
let codec : t Check.Codec.f =
  let open Check.Codec in
  {
    wr =
      (fun b -> function
        | Data (l, x) ->
            byte.wr b 0;
            label.wr b l;
            string.wr b x
        | Summ s ->
            byte.wr b 1;
            summary.wr b s);
    rd =
      (fun r ->
        match byte.rd r with
        | 0 ->
            let l = label.rd r in
            let x = string.rd r in
            Data (l, x)
        | 1 -> Summ (summary.rd r)
        | _ -> raise (Malformed "to-msg tag"));
  }
