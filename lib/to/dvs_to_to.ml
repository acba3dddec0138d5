open Prelude

type payload = string
type status = Normal | Send | Collect

let status_name = function Normal -> "normal" | Send -> "send" | Collect -> "collect"
let pp_status ppf s = Format.pp_print_string ppf (status_name s)

type state = {
  me : Proc.t;
  current : View.t option;
  status : status;
  content : payload Label.Map.t;
  nextseqno : int;
  buffer : Label.t Seqs.t;
  safe_labels : Label.Set.t;
  order : Label.t Seqs.t;
  nextconfirm : int;
  nextreport : int;
  highprimary : Gid.t;
  gotstate : Summary.gotstate;
  safe_exch : Proc.Set.t;
  registered : Gid.Set.t;
  delay : payload Seqs.t;
  established : Gid.Set.t;
  buildorder : Label.t Seqs.t Gid.Map.t;
}

type action =
  | Bcast of payload
  | Label_msg of payload
  | Dvs_gpsnd of To_msg.t
  | Dvs_gprcv of Proc.t * To_msg.t
  | Dvs_safe of Proc.t * To_msg.t
  | Dvs_newview of View.t
  | Dvs_register
  | Confirm
  | Brcv of Proc.t * payload

let initial ~p0 p =
  let member = Proc.Set.mem p p0 in
  {
    me = p;
    current = (if member then Some (View.initial p0) else None);
    status = Normal;
    content = Label.Map.empty;
    nextseqno = 1;
    buffer = Seqs.empty;
    safe_labels = Label.Set.empty;
    order = Seqs.empty;
    nextconfirm = 1;
    nextreport = 1;
    highprimary = Gid.g0;
    gotstate = Proc.Map.empty;
    safe_exch = Proc.Set.empty;
    registered = (if member then Gid.Set.singleton Gid.g0 else Gid.Set.empty);
    delay = Seqs.empty;
    established = Gid.Set.empty;
    buildorder = Gid.Map.empty;
  }

let summary s =
  Summary.make ~con:s.content ~ord:s.order ~next:s.nextconfirm ~high:s.highprimary

let current_id s =
  match s.current with None -> Gid.Bot.bot | Some v -> Gid.Bot.of_gid (View.id v)

let established_in s g = Gid.Set.mem g s.established
let confirmed_prefix s = Seqs.sub1 s.order 1 (s.nextconfirm - 1)

(* Record [order] into the buildorder history for the current view. *)
let note_order s =
  match s.current with
  | None -> s
  | Some v -> { s with buildorder = Gid.Map.add (View.id v) s.order s.buildorder }

let enabled s = function
  | Bcast _ | Dvs_gprcv _ | Dvs_safe _ | Dvs_newview _ -> true (* inputs *)
  | Label_msg a -> (
      (* Labelling waits for normal status: a label minted during the state
         exchange would ride inside this process's summary *and* later as a
         normal message, and get ordered twice.  (Figure 5 omits the status
         check; without it the Section 6.2 invariants are violated — see the
         interface note.) *)
      s.current <> None
      && s.status = Normal
      && match Seqs.head_opt s.delay with Some a' -> String.equal a a' | None -> false)
  | Dvs_gpsnd (To_msg.Data (l, a)) -> (
      s.status = Normal
      && (match Seqs.head_opt s.buffer with
         | Some l' -> Label.equal l l'
         | None -> false)
      && match Label.Map.find_opt l s.content with
         | Some a' -> String.equal a a'
         | None -> false)
  | Dvs_gpsnd (To_msg.Summ x) -> s.status = Send && Summary.equal x (summary s)
  | Dvs_register -> (
      match s.current with
      | None -> false
      | Some v ->
          established_in s (View.id v) && not (Gid.Set.mem (View.id v) s.registered))
  | Confirm -> (
      match Seqs.nth1_opt s.order s.nextconfirm with
      | Some l -> Label.Set.mem l s.safe_labels
      | None -> false)
  | Brcv (q, a) -> (
      s.nextreport < s.nextconfirm
      &&
      match Seqs.nth1_opt s.order s.nextreport with
      | Some l -> (
          Proc.equal q l.Label.origin
          &&
          match Label.Map.find_opt l s.content with
          | Some a' -> String.equal a a'
          | None -> false)
      | None -> false)

let step s = function
  | Bcast a -> { s with delay = Seqs.append s.delay a }
  | Label_msg a -> (
      match s.current with
      | None -> s
      | Some v ->
          let l = Label.make ~id:(View.id v) ~seqno:s.nextseqno ~origin:s.me in
          {
            s with
            content = Label.Map.add l a s.content;
            buffer = Seqs.append s.buffer l;
            nextseqno = s.nextseqno + 1;
            delay = Seqs.remove_head s.delay;
          })
  | Dvs_gpsnd (To_msg.Data (_, _)) -> { s with buffer = Seqs.remove_head s.buffer }
  | Dvs_gpsnd (To_msg.Summ _) -> { s with status = Collect }
  | Dvs_gprcv (_, To_msg.Data (l, a)) ->
      note_order
        { s with content = Label.Map.add l a s.content; order = Seqs.append s.order l }
  | Dvs_gprcv (q, To_msg.Summ x) -> (
      let s =
        {
          s with
          content = Label.Map.union_left s.content x.Summary.con;
          gotstate = Proc.Map.add q x s.gotstate;
        }
      in
      match s.current with
      | Some v
        when s.status = Collect
             && Proc.Set.equal
                  (Proc.Set.of_list (List.map fst (Proc.Map.bindings s.gotstate)))
                  (View.set v) ->
          note_order
            {
              s with
              nextconfirm = Summary.maxnextconfirm s.gotstate;
              order = Summary.fullorder s.gotstate;
              highprimary = View.id v;
              status = Normal;
              established = Gid.Set.add (View.id v) s.established;
            }
      | Some _ | None -> s)
  | Dvs_safe (_, To_msg.Data (l, _)) ->
      { s with safe_labels = Label.Set.add l s.safe_labels }
  | Dvs_safe (q, To_msg.Summ _) -> (
      let s = { s with safe_exch = Proc.Set.add q s.safe_exch } in
      match s.current with
      | Some v when Proc.Set.equal s.safe_exch (View.set v) ->
          let exchanged =
            Seqs.fold_left
              (fun acc l -> Label.Set.add l acc)
              Label.Set.empty
              (Summary.fullorder s.gotstate)
          in
          { s with safe_labels = Label.Set.union s.safe_labels exchanged }
      | Some _ | None -> s)
  | Dvs_newview v ->
      {
        s with
        current = Some v;
        nextseqno = 1;
        buffer = Seqs.empty;
        gotstate = Proc.Map.empty;
        safe_exch = Proc.Set.empty;
        safe_labels = Label.Set.empty;
        status = Send;
      }
  | Dvs_register -> (
      match s.current with
      | None -> s
      | Some v -> { s with registered = Gid.Set.add (View.id v) s.registered })
  | Confirm -> { s with nextconfirm = s.nextconfirm + 1 }
  | Brcv (_, _) -> { s with nextreport = s.nextreport + 1 }

let is_external = function
  | Bcast _ | Brcv _ | Dvs_gpsnd _ | Dvs_gprcv _ | Dvs_safe _ | Dvs_newview _
  | Dvs_register ->
      true
  | Label_msg _ | Confirm -> false

(* The state described once (DESIGN.md §13): codec and equality derive
   from these seventeen fields, in the codec's field order. *)
let record : (unit, state) Check.Record.t =
  let open Check.Record in
  let module C = Check.Codec in
  let status_c =
    C.via C.byte
      ~to_:(function Normal -> 0 | Send -> 1 | Collect -> 2)
      ~of_:(function
        | 0 -> Normal | 1 -> Send | 2 -> Collect
        | _ -> raise (C.Malformed "status tag"))
  in
  let labels name get = field name get (Fixed C.(seqs label)) (Seqs.equal Label.equal) in
  let counter name get = field name get (Fixed C.int) Int.equal in
  let gids name get = field name get (Fixed C.gid_set) Gid.Set.equal in
  make
    (fun me current status content nextseqno buffer safe_labels order nextconfirm nextreport
         highprimary gotstate safe_exch registered delay established buildorder ->
      { me; current; status; content; nextseqno; buffer; safe_labels; order; nextconfirm;
        nextreport; highprimary; gotstate; safe_exch; registered; delay; established;
        buildorder })
    [
      field "me" (fun s -> s.me) (Fixed C.proc) Proc.equal;
      field "current" (fun s -> s.current) (Fixed C.(option view)) (Option.equal View.equal);
      field "status" (fun s -> s.status) (Fixed status_c) ( = );
      field "content" (fun s -> s.content) (Fixed C.(label_map string))
        (Label.Map.equal String.equal);
      counter "nextseqno" (fun s -> s.nextseqno);
      labels "buffer" (fun s -> s.buffer);
      field "safe_labels" (fun s -> s.safe_labels) (Fixed C.label_set) Label.Set.equal;
      labels "order" (fun s -> s.order);
      counter "nextconfirm" (fun s -> s.nextconfirm);
      counter "nextreport" (fun s -> s.nextreport);
      field "highprimary" (fun s -> s.highprimary) (Fixed C.gid) Gid.equal;
      field "gotstate" (fun s -> s.gotstate) (Fixed C.(proc_map summary))
        (Proc.Map.equal Summary.equal);
      field "safe_exch" (fun s -> s.safe_exch) (Fixed C.proc_set) Proc.Set.equal;
      gids "registered" (fun s -> s.registered);
      field "delay" (fun s -> s.delay) (Fixed C.(seqs string)) (Seqs.equal String.equal);
      gids "established" (fun s -> s.established);
      field "buildorder" (fun s -> s.buildorder) (Fixed C.(gid_map (seqs label)))
        (Gid.Map.equal (Seqs.equal Label.equal));
    ]

let equal_state = Check.Record.equal record
let codec_state = Check.Record.codec record Check.Codec.unit

let pp_state ppf s =
  Format.fprintf ppf
    "@[<v>me=%a view=%a status=%a high=%a@ order=%a nextconfirm=%d nextreport=%d@ \
     content=%d labels, safe=%d labels@]"
    Proc.pp s.me
    (Format.pp_print_option ~none:(fun ppf () -> Format.pp_print_string ppf "⊥") View.pp)
    s.current pp_status s.status Gid.pp s.highprimary (Seqs.pp Label.pp) s.order
    s.nextconfirm s.nextreport
    (Label.Map.cardinal s.content)
    (Label.Set.cardinal s.safe_labels)

(* Canonical full-state rendering of all seventeen fields — used as the
   dedup key for exhaustive exploration. *)
let key_to_buffer buf s =
  let add = Buffer.add_string buf and chr = Buffer.add_char buf in
  let semi () = chr ';' in
  let gids set = Fill.sep_elements ~sep:semi Gid.Set.fold (Gid.to_buffer buf) set in
  let labels = Seqs.to_buffer Label.to_buffer buf in
  add "me";
  Proc.to_buffer buf s.me;
  add "|cv";
  (match s.current with None -> add "⊥" | Some v -> View.to_buffer buf v);
  add "|st";
  add (status_name s.status);
  add "|co[";
  Fill.sep_bindings ~sep:semi Label.Map.fold
    (fun l a ->
      Label.to_buffer buf l;
      chr '=';
      add a)
    s.content;
  add "]|ns";
  add (string_of_int s.nextseqno);
  add "|bf";
  labels s.buffer;
  add "|sl{";
  Fill.sep_elements ~sep:semi Label.Set.fold (Label.to_buffer buf) s.safe_labels;
  add "}|or";
  labels s.order;
  add "|nc";
  add (string_of_int s.nextconfirm);
  add "|nr";
  add (string_of_int s.nextreport);
  add "|hp";
  Gid.to_buffer buf s.highprimary;
  add "|gs[";
  Fill.sep_bindings ~sep:semi Proc.Map.fold
    (fun q x ->
      Proc.to_buffer buf q;
      chr ':';
      Summary.to_buffer buf x)
    s.gotstate;
  add "]|se";
  Proc.Set.to_buffer buf s.safe_exch;
  add "|rg{";
  gids s.registered;
  add "}|dl";
  Seqs.to_buffer Buffer.add_string buf s.delay;
  add "|es{";
  gids s.established;
  add "}|bo[";
  Fill.sep_bindings ~sep:semi Gid.Map.fold
    (fun g q ->
      Gid.to_buffer buf g;
      chr ':';
      labels q)
    s.buildorder;
  chr ']'

let state_key s =
  let buf = Buffer.create 512 in
  key_to_buffer buf s;
  Buffer.contents buf

let pp_action ppf = function
  | Bcast a -> Format.fprintf ppf "bcast(%s)" a
  | Label_msg a -> Format.fprintf ppf "label(%s)" a
  | Dvs_gpsnd m -> Format.fprintf ppf "dvs-gpsnd(%a)" To_msg.pp m
  | Dvs_gprcv (q, m) -> Format.fprintf ppf "dvs-gprcv(%a)_%a" To_msg.pp m Proc.pp q
  | Dvs_safe (q, m) -> Format.fprintf ppf "dvs-safe(%a)_%a" To_msg.pp m Proc.pp q
  | Dvs_newview v -> Format.fprintf ppf "dvs-newview(%a)" View.pp v
  | Dvs_register -> Format.pp_print_string ppf "dvs-register"
  | Confirm -> Format.pp_print_string ppf "confirm"
  | Brcv (q, a) -> Format.fprintf ppf "brcv(%s)_%a" a Proc.pp q
