open Prelude

type t = {
  issued : View.Set.t;
  next_id : Gid.t;
  notified : Gid.Bot.t Proc.Map.t;
  components : Proc.Set.t list;
}

let initial ~p0 =
  {
    issued = View.Set.empty;
    next_id = Gid.succ Gid.g0;
    notified =
      Proc.Set.fold
        (fun p acc -> Proc.Map.add p (Gid.Bot.of_gid Gid.g0) acc)
        p0 Proc.Map.empty;
    components = [ p0 ];
  }

let created ~p0 t = View.Set.add (View.initial p0) t.issued

let reconfigure t components = { t with components }

let create ?metrics t c =
  let is_component = List.exists (Proc.Set.equal c) t.components in
  if not is_component then None
  else begin
    (match metrics with
    | None -> ()
    | Some m -> Obs.Metrics.incr m "daemon.views_created");
    let v = View.make ~id:t.next_id ~set:c in
    Some
      ( { t with issued = View.Set.add v t.issued; next_id = Gid.succ t.next_id },
        v )
  end

let can_notify t v p =
  View.mem p v
  && Gid.Bot.lt_gid (Proc.Map.find_or ~default:Gid.Bot.bot p t.notified) (View.id v)

let notify ?metrics t v p =
  (match metrics with
  | None -> ()
  | Some m -> Obs.Metrics.incr m "daemon.notifications");
  { t with notified = Proc.Map.add p (Gid.Bot.of_gid (View.id v)) t.notified }

let pp ppf t =
  Format.fprintf ppf "daemon: %d views issued, next %a" (View.Set.cardinal t.issued)
    Gid.pp t.next_id

let state_key t =
  let buf = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer buf in
  let semi ppf () = Format.pp_print_string ppf ";" in
  Format.fprintf ppf "is%a|nx%a|nt[%a]|cp[%a]" View.Set.pp t.issued Gid.pp
    t.next_id
    (Format.pp_print_list ~pp_sep:semi (fun ppf (p, g) ->
         Format.fprintf ppf "%a=%a" Proc.pp p Gid.Bot.pp g))
    (Proc.Map.bindings t.notified)
    (Format.pp_print_list ~pp_sep:semi Proc.Set.pp)
    t.components;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* A function, so that the stack can nest it under its own payload type. *)
let record () =
  let open Check.Record in
  make (fun issued next_id notified components -> { issued; next_id; notified; components })
    [
      field "issued" (fun t -> t.issued) (Fixed Check.Codec.view_set)
        View.Set.equal ~family:(Family "issued")
        ~permute:(fun pi -> View.Set.map (View.permute pi));
      field "next_id" (fun t -> t.next_id) (Fixed Check.Codec.gid) Gid.equal
        ~family:(Family "issued");
      field "notified" (fun t -> t.notified) (Fixed Check.Codec.(proc_map gid_bot))
        (Proc.Map.equal Gid.Bot.equal) ~family:(Family "notified")
        ~permute:(fun pi m ->
          Proc.Map.fold (fun p g acc -> Proc.Map.add (pi p) g acc) m Proc.Map.empty);
      field "components" (fun t -> t.components) (Fixed Check.Codec.(list proc_set))
        (List.equal Proc.Set.equal) ~family:(Family "components")
        ~permute:(fun pi -> List.map (Proc.Set.map pi));
    ]

let equal = Check.Record.equal (record ())
let permute = Check.Record.permute (record ())
let codec = Check.Record.codec (record ()) Check.Codec.unit
