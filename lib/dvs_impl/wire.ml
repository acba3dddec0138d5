open Prelude

type 'c t =
  | Client of 'c
  | Info of View.t * View.Set.t
  | Registered

let is_client = function Client _ -> true | Info _ | Registered -> false
let client_payload = function Client c -> Some c | Info _ | Registered -> None

(* Flat canonical codec: tag byte + constructor payload.  Canonical
   because the payload codecs are and tags are distinct. *)
let codec (c : 'c Check.Codec.f) : 'c t Check.Codec.f =
  let open Check.Codec in
  {
    wr =
      (fun b -> function
        | Client x ->
            byte.wr b 0;
            c.wr b x
        | Info (v, vs) ->
            byte.wr b 1;
            view.wr b v;
            view_set.wr b vs
        | Registered -> byte.wr b 2);
    rd =
      (fun r ->
        match byte.rd r with
        | 0 -> Client (c.rd r)
        | 1 ->
            let v = view.rd r in
            let vs = view_set.rd r in
            Info (v, vs)
        | 2 -> Registered
        | _ -> raise (Malformed "wire tag"));
  }

module Make (M : Msg_intf.S) = struct
  type nonrec t = M.t t

  let compare a b =
    match (a, b) with
    | Client x, Client y -> M.compare x y
    | Client _, (Info _ | Registered) -> -1
    | Info _, Client _ -> 1
    | Info (v, vs), Info (w, ws) -> (
        match View.compare v w with 0 -> View.Set.compare vs ws | c -> c)
    | Info _, Registered -> -1
    | Registered, (Client _ | Info _) -> 1
    | Registered, Registered -> 0

  let equal a b = compare a b = 0

  let pp ppf = function
    | Client c -> Format.fprintf ppf "client:%a" M.pp c
    | Info (v, vs) ->
        Format.fprintf ppf "info(act=%a,amb=%a)" View.pp v View.Set.pp vs
    | Registered -> Format.pp_print_string ppf "registered"

  let to_buffer buf = function
    | Client c ->
        Buffer.add_string buf "client:";
        M.to_buffer buf c
    | Info (v, vs) ->
        Buffer.add_string buf "info(act=";
        View.to_buffer buf v;
        Buffer.add_string buf ",amb=";
        View.Set.to_buffer buf vs;
        Buffer.add_char buf ')'
    | Registered -> Buffer.add_string buf "registered"
end
