open Prelude

type variant = Faithful | No_majority | No_info_wait | Ignore_amb | No_gc

let pp_variant ppf v =
  Format.pp_print_string ppf
    (match v with
    | Faithful -> "faithful"
    | No_majority -> "no-majority"
    | No_info_wait -> "no-info-wait"
    | Ignore_amb -> "ignore-amb"
    | No_gc -> "no-gc")

module Make (M : Msg_intf.S) = struct
  module W = Wire.Make (M)

  type wire = M.t Wire.t

  type state = {
    me : Proc.t;
    cur : View.t option;
    client_cur : View.t option;
    act : View.t;
    amb : View.Set.t;
    attempted : View.Set.t;
    info_rcvd : (View.t * View.Set.t) Pg_map.t;
    rcvd_rgst : unit Pg_map.t;
    msgs_to_vs : wire Seqs.t Gid.Map.t;
    msgs_from_vs : (M.t * Proc.t) Seqs.t Gid.Map.t;
    safe_from_vs : (M.t * Proc.t) Seqs.t Gid.Map.t;
    reg : Gid.Set.t;
    info_sent : (View.t * View.Set.t) Gid.Map.t;
  }

  type action =
    | Dvs_gpsnd of M.t
    | Dvs_register
    | Vs_newview of View.t
    | Vs_gprcv of Proc.t * wire
    | Vs_safe of Proc.t * wire
    | Vs_gpsnd of wire
    | Dvs_newview of View.t
    | Dvs_gprcv of Proc.t * M.t
    | Dvs_safe of Proc.t * M.t
    | Garbage_collect of View.t

  let initial ~p0 p =
    let member = Proc.Set.mem p p0 in
    let v0 = View.initial p0 in
    {
      me = p;
      cur = (if member then Some v0 else None);
      client_cur = (if member then Some v0 else None);
      act = v0;
      amb = View.Set.empty;
      attempted = (if member then View.Set.singleton v0 else View.Set.empty);
      info_rcvd = Pg_map.empty;
      rcvd_rgst = Pg_map.empty;
      msgs_to_vs = Gid.Map.empty;
      msgs_from_vs = Gid.Map.empty;
      safe_from_vs = Gid.Map.empty;
      reg = (if member then Gid.Set.singleton Gid.g0 else Gid.Set.empty);
      info_sent = Gid.Map.empty;
    }

  let use s = View.Set.add s.act s.amb
  let view_id_opt = function None -> Gid.Bot.bot | Some v -> Gid.Bot.of_gid (View.id v)
  let cur_id s = view_id_opt s.cur
  let client_cur_id s = view_id_opt s.client_cur

  let seq_of map g = Option.value ~default:Seqs.empty (Gid.Map.find_opt g map)
  let msgs_to_vs_of s g = seq_of s.msgs_to_vs g
  let msgs_from_vs_of s g = seq_of s.msgs_from_vs g
  let safe_from_vs_of s g = seq_of s.safe_from_vs g
  let reg_of s g = Gid.Set.mem g s.reg

  (* The admission test of [dvs-newview(v)]: the intersection clause under
     the selected variant, Figure 3's [∀w ∈ use: |v.set ∩ w.set| > |w.set|/2]
     for the faithful algorithm. *)
  let admits variant s v =
    let views =
      match variant with Ignore_amb -> View.Set.singleton s.act | _ -> use s
    in
    let ok w =
      match variant with
      | No_majority -> View.intersects v w
      | Faithful | No_info_wait | Ignore_amb | No_gc ->
          View.majority_intersects v ~of_:w
    in
    View.Set.for_all ok views

  let enabled_v variant s = function
    | Dvs_gpsnd _ | Dvs_register | Vs_newview _ | Vs_gprcv _ | Vs_safe _ ->
        true (* inputs *)
    | Vs_gpsnd m -> (
        match s.cur with
        | None -> false
        | Some cur -> (
            match Seqs.head_opt (msgs_to_vs_of s (View.id cur)) with
            | Some m' -> W.equal m m'
            | None -> false))
    | Dvs_newview v -> (
        match s.cur with
        | None -> false
        | Some cur ->
            View.equal v cur
            && Gid.Bot.lt_gid (client_cur_id s) (View.id v)
            && (variant = No_info_wait
               || Proc.Set.for_all
                    (fun q ->
                      Proc.equal q s.me
                      || Pg_map.mem (q, View.id v) s.info_rcvd)
                    (View.set v))
            && admits variant s v)
    | Dvs_gprcv (q, m) -> (
        match s.client_cur with
        | None -> false
        | Some cc -> (
            match Seqs.head_opt (msgs_from_vs_of s (View.id cc)) with
            | Some (m', q') -> M.equal m m' && Proc.equal q q'
            | None -> false))
    | Dvs_safe (q, m) -> (
        match s.client_cur with
        | None -> false
        | Some cc -> (
            match Seqs.head_opt (safe_from_vs_of s (View.id cc)) with
            | Some (m', q') -> M.equal m m' && Proc.equal q q'
            | None -> false))
    | Garbage_collect v ->
        variant <> No_gc
        && Gid.gt (View.id v) (View.id s.act)
        && (match s.cur with Some c when View.equal c v -> true | _ ->
              View.Set.mem v s.amb)
        && Proc.Set.for_all
             (fun q -> Pg_map.mem (q, View.id v) s.rcvd_rgst)
             (View.set v)

  let append_to_vs s g m =
    { s with msgs_to_vs = Gid.Map.add g (Seqs.append (msgs_to_vs_of s g) m) s.msgs_to_vs }

  let step_v _variant s = function
    | Dvs_gpsnd m -> (
        match s.client_cur with
        | None -> s
        | Some cc -> append_to_vs s (View.id cc) (Wire.Client m))
    | Dvs_register -> (
        match s.client_cur with
        | None -> s
        | Some cc ->
            let g = View.id cc in
            let s = { s with reg = Gid.Set.add g s.reg } in
            append_to_vs s g Wire.Registered)
    | Vs_newview v ->
        let g = View.id v in
        let s = { s with cur = Some v } in
        let s = append_to_vs s g (Wire.Info (s.act, s.amb)) in
        { s with info_sent = Gid.Map.add g (s.act, s.amb) s.info_sent }
    | Vs_gprcv (q, Wire.Info (v, vset)) ->
        let g = match s.cur with Some c -> View.id c | None -> Gid.g0 in
        let s = { s with info_rcvd = Pg_map.add (q, g) (v, vset) s.info_rcvd } in
        let act = if Gid.gt (View.id v) (View.id s.act) then v else s.act in
        let amb =
          View.Set.filter
            (fun w -> Gid.gt (View.id w) (View.id act))
            (View.Set.union s.amb vset)
        in
        { s with act; amb }
    | Vs_gprcv (q, Wire.Registered) ->
        let g = match s.cur with Some c -> View.id c | None -> Gid.g0 in
        { s with rcvd_rgst = Pg_map.add (q, g) () s.rcvd_rgst }
    | Vs_gprcv (q, Wire.Client m) ->
        let g = match s.cur with Some c -> View.id c | None -> Gid.g0 in
        {
          s with
          msgs_from_vs =
            Gid.Map.add g (Seqs.append (msgs_from_vs_of s g) (m, q)) s.msgs_from_vs;
        }
    | Vs_safe (q, Wire.Client m) ->
        let g = match s.cur with Some c -> View.id c | None -> Gid.g0 in
        {
          s with
          safe_from_vs =
            Gid.Map.add g (Seqs.append (safe_from_vs_of s g) (m, q)) s.safe_from_vs;
        }
    | Vs_safe (_, (Wire.Info _ | Wire.Registered)) -> s
    | Vs_gpsnd _ -> (
        match s.cur with
        | None -> s
        | Some cur ->
            let g = View.id cur in
            {
              s with
              msgs_to_vs =
                Gid.Map.add g (Seqs.remove_head (msgs_to_vs_of s g)) s.msgs_to_vs;
            })
    | Dvs_newview v ->
        {
          s with
          amb = View.Set.add v s.amb;
          attempted = View.Set.add v s.attempted;
          client_cur = Some v;
        }
    | Dvs_gprcv (_, _) -> (
        match s.client_cur with
        | None -> s
        | Some cc ->
            let g = View.id cc in
            {
              s with
              msgs_from_vs =
                Gid.Map.add g
                  (Seqs.remove_head (msgs_from_vs_of s g))
                  s.msgs_from_vs;
            })
    | Dvs_safe (_, _) -> (
        match s.client_cur with
        | None -> s
        | Some cc ->
            let g = View.id cc in
            {
              s with
              safe_from_vs =
                Gid.Map.add g
                  (Seqs.remove_head (safe_from_vs_of s g))
                  s.safe_from_vs;
            })
    | Garbage_collect v ->
        let act = v in
        let amb = View.Set.filter (fun w -> Gid.gt (View.id w) (View.id act)) s.amb in
        { s with act; amb }

  let is_external = function
    | Dvs_gpsnd _ | Dvs_register | Dvs_newview _ | Dvs_gprcv _ | Dvs_safe _
    | Vs_newview _ | Vs_gprcv _ | Vs_safe _ | Vs_gpsnd _ ->
        true
    | Garbage_collect _ -> false

  (* The state described once (DESIGN.md §13): codec and equality derive
     from these fields, in the codec's field order. *)
  let record : (M.t, state) Check.Record.t =
    let open Check.Record in
    let module C = Check.Codec in
    let mp_equal (m, p) (m', p') = M.equal m m' && Proc.equal p p' in
    let info_equal (v, vs) (w, ws) = View.equal v w && View.Set.equal vs ws in
    let view_opt name get = field name get (Fixed C.(option view)) (Option.equal View.equal) in
    let views name get = field name get (Fixed C.view_set) View.Set.equal in
    let from_vs name get =
      field name get (Payload (fun m -> C.(gid_map (seqs (pair m proc)))))
        (Gid.Map.equal (Seqs.equal mp_equal))
    in
    make
      (fun me cur client_cur act amb attempted info_rcvd rcvd_rgst msgs_to_vs msgs_from_vs
           safe_from_vs reg info_sent ->
        { me; cur; client_cur; act; amb; attempted; info_rcvd; rcvd_rgst; msgs_to_vs;
          msgs_from_vs; safe_from_vs; reg; info_sent })
      [
        field "me" (fun s -> s.me) (Fixed C.proc) Proc.equal;
        view_opt "cur" (fun s -> s.cur);
        view_opt "client_cur" (fun s -> s.client_cur);
        field "act" (fun s -> s.act) (Fixed C.view) View.equal;
        views "amb" (fun s -> s.amb);
        views "attempted" (fun s -> s.attempted);
        field "info_rcvd" (fun s -> s.info_rcvd) (Fixed C.(pg_map (pair view view_set)))
          (Pg_map.equal info_equal);
        field "rcvd_rgst" (fun s -> s.rcvd_rgst) (Fixed C.(pg_map unit))
          (Pg_map.equal (fun () () -> true));
        field "msgs_to_vs" (fun s -> s.msgs_to_vs)
          (Payload (fun m -> C.(gid_map (seqs (Wire.codec m)))))
          (Gid.Map.equal (Seqs.equal W.equal));
        from_vs "msgs_from_vs" (fun s -> s.msgs_from_vs);
        from_vs "safe_from_vs" (fun s -> s.safe_from_vs);
        field "reg" (fun s -> s.reg) (Fixed C.gid_set) Gid.Set.equal;
        field "info_sent" (fun s -> s.info_sent) (Fixed C.(gid_map (pair view view_set)))
          (Gid.Map.equal info_equal);
      ]

  let equal_state = Check.Record.equal record
  let codec_state = Check.Record.codec record

  let pp_view_opt ppf = function
    | None -> Format.pp_print_string ppf "⊥"
    | Some v -> View.pp ppf v

  let pp_state ppf s =
    Format.fprintf ppf
      "@[<v>me=%a cur=%a client-cur=%a act=%a@ amb=%a attempted=%a reg={%a}@]"
      Proc.pp s.me pp_view_opt s.cur pp_view_opt s.client_cur View.pp s.act
      View.Set.pp s.amb View.Set.pp s.attempted
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Gid.pp)
      (Gid.Set.elements s.reg)

  (* Canonical full-state rendering used as an exhaustive-exploration dedup
     key component: every field is included (history variables too), so
     distinct node states never share a key.  Injective whenever [M.pp] is
     injective on the alphabet in use; the explorer's key audit
     ([check_key]) verifies this on the instances the analyzer runs. *)
  let key_to_buffer buf s =
    let add = Buffer.add_string buf and chr = Buffer.add_char buf in
    let semi () = chr ';' in
    let view_opt = function None -> add "⊥" | Some v -> View.to_buffer buf v in
    let mp buf (m, q) =
      M.to_buffer buf m;
      Buffer.add_char buf '@';
      Proc.to_buffer buf q
    in
    let info (v, vs) =
      chr '(';
      View.to_buffer buf v;
      chr ',';
      View.Set.to_buffer buf vs;
      chr ')'
    in
    let pg (q, g) =
      Proc.to_buffer buf q;
      chr '.';
      Gid.to_buffer buf g
    in
    let gmap f m =
      Fill.sep_bindings ~sep:semi Gid.Map.fold
        (fun g x ->
          Gid.to_buffer buf g;
          chr ':';
          f x)
        m
    in
    add "me";
    Proc.to_buffer buf s.me;
    add "|cur";
    view_opt s.cur;
    add "|cc";
    view_opt s.client_cur;
    add "|act";
    View.to_buffer buf s.act;
    add "|amb";
    View.Set.to_buffer buf s.amb;
    add "|att";
    View.Set.to_buffer buf s.attempted;
    add "|ir[";
    Fill.sep_bindings ~sep:semi Pg_map.fold
      (fun k x ->
        pg k;
        chr '=';
        info x)
      s.info_rcvd;
    add "]|rr[";
    Fill.sep_bindings ~sep:semi Pg_map.fold (fun k () -> pg k) s.rcvd_rgst;
    add "]|tv[";
    gmap (Seqs.to_buffer W.to_buffer buf) s.msgs_to_vs;
    add "]|fv[";
    gmap (Seqs.to_buffer mp buf) s.msgs_from_vs;
    add "]|sv[";
    gmap (Seqs.to_buffer mp buf) s.safe_from_vs;
    add "]|rg{";
    Fill.sep_elements ~sep:semi Gid.Set.fold (Gid.to_buffer buf) s.reg;
    add "}|is[";
    gmap info s.info_sent;
    chr ']'

  let state_key s =
    let buf = Buffer.create 512 in
    key_to_buffer buf s;
    Buffer.contents buf

  let pp_action ppf = function
    | Dvs_gpsnd m -> Format.fprintf ppf "dvs-gpsnd(%a)" M.pp m
    | Dvs_register -> Format.pp_print_string ppf "dvs-register"
    | Vs_newview v -> Format.fprintf ppf "vs-newview(%a)" View.pp v
    | Vs_gprcv (q, m) -> Format.fprintf ppf "vs-gprcv(%a)_%a" W.pp m Proc.pp q
    | Vs_safe (q, m) -> Format.fprintf ppf "vs-safe(%a)_%a" W.pp m Proc.pp q
    | Vs_gpsnd m -> Format.fprintf ppf "vs-gpsnd(%a)" W.pp m
    | Dvs_newview v -> Format.fprintf ppf "dvs-newview(%a)" View.pp v
    | Dvs_gprcv (q, m) -> Format.fprintf ppf "dvs-gprcv(%a)_%a" M.pp m Proc.pp q
    | Dvs_safe (q, m) -> Format.fprintf ppf "dvs-safe(%a)_%a" M.pp m Proc.pp q
    | Garbage_collect v -> Format.fprintf ppf "dvs-garbage-collect(%a)" View.pp v

  let automaton variant =
    (module struct
      type nonrec state = state
      type nonrec action = action

      let equal_state = equal_state
      let pp_state = pp_state
      let pp_action = pp_action
      let enabled = enabled_v variant
      let step = step_v variant
      let is_external = is_external
    end : Ioa.Automaton.S
      with type state = state
       and type action = action)
end
