open Prelude

module Make (M : Msg_intf.S) = struct
  type state = {
    created : View.Set.t;
    current_viewid : Gid.Bot.t Proc.Map.t;
    queue : (M.t * Proc.t) Seqs.t Gid.Map.t;
    attempted : Proc.Set.t Gid.Map.t;
    registered : Proc.Set.t Gid.Map.t;
    pending : M.t Seqs.t Pg_map.t;
    next : int Pg_map.t;
    next_safe : int Pg_map.t;
  }

  type action =
    | Createview of View.t
    | Newview of View.t * Proc.t
    | Register of Proc.t
    | Gpsnd of Proc.t * M.t
    | Order of M.t * Proc.t * Gid.t
    | Gprcv of { src : Proc.t; dst : Proc.t; msg : M.t; gid : Gid.t }
    | Safe of { src : Proc.t; dst : Proc.t; msg : M.t; gid : Gid.t }

  let initial p0 =
    let v0 = View.initial p0 in
    {
      created = View.Set.singleton v0;
      current_viewid =
        Proc.Set.fold
          (fun p acc -> Proc.Map.add p (Gid.Bot.of_gid Gid.g0) acc)
          p0 Proc.Map.empty;
      queue = Gid.Map.empty;
      attempted = Gid.Map.singleton Gid.g0 p0;
      registered = Gid.Map.singleton Gid.g0 p0;
      pending = Pg_map.empty;
      next = Pg_map.empty;
      next_safe = Pg_map.empty;
    }

  let current_viewid_of s p = Proc.Map.find_or ~default:Gid.Bot.bot p s.current_viewid
  let queue_of s g = Option.value ~default:Seqs.empty (Gid.Map.find_opt g s.queue)

  let attempted_of s g =
    Option.value ~default:Proc.Set.empty (Gid.Map.find_opt g s.attempted)

  let registered_of s g =
    Option.value ~default:Proc.Set.empty (Gid.Map.find_opt g s.registered)

  let pending_of s p g = Pg_map.find_or ~default:Seqs.empty (p, g) s.pending
  let next_of s p g = Pg_map.find_or ~default:1 (p, g) s.next
  let next_safe_of s p g = Pg_map.find_or ~default:1 (p, g) s.next_safe

  let created_view s g =
    View.Set.fold
      (fun v acc -> if Gid.equal (View.id v) g then Some v else acc)
      s.created None

  let att s =
    View.Set.filter
      (fun v -> not (Proc.Set.is_empty (attempted_of s (View.id v))))
      s.created

  let tot_att s =
    View.Set.filter
      (fun v -> Proc.Set.subset (View.set v) (attempted_of s (View.id v)))
      s.created

  let reg s =
    View.Set.filter
      (fun v -> not (Proc.Set.is_empty (registered_of s (View.id v))))
      s.created

  let tot_reg s =
    View.Set.filter
      (fun v -> Proc.Set.subset (View.set v) (registered_of s (View.id v)))
      s.created

  let tot_reg_between s a b =
    let lo = min a b and hi = max a b in
    View.Set.exists
      (fun x -> Gid.lt lo (View.id x) && Gid.lt (View.id x) hi)
      (tot_reg s)

  let msg_pair_equal (m, p) (m', p') = M.equal m m' && Proc.equal p p'

  let enabled s = function
    | Createview v ->
        View.Set.for_all
          (fun w -> not (Gid.equal (View.id v) (View.id w)))
          s.created
        && View.Set.for_all
             (fun w ->
               tot_reg_between s (View.id w) (View.id v)
               || View.intersects v w)
             s.created
    | Newview (v, p) ->
        View.Set.mem v s.created
        && View.mem p v
        && Gid.Bot.lt_gid (current_viewid_of s p) (View.id v)
    | Register _ -> true
    | Gpsnd (_, _) -> true
    | Order (m, p, g) -> (
        match Seqs.head_opt (pending_of s p g) with
        | Some m' -> M.equal m m'
        | None -> false)
    | Gprcv { src; dst; msg; gid } -> (
        Gid.Bot.equal (current_viewid_of s dst) (Gid.Bot.of_gid gid)
        &&
        match Seqs.nth1_opt (queue_of s gid) (next_of s dst gid) with
        | Some pair -> msg_pair_equal pair (msg, src)
        | None -> false)
    | Safe { src; dst; msg; gid } -> (
        Gid.Bot.equal (current_viewid_of s dst) (Gid.Bot.of_gid gid)
        &&
        match created_view s gid with
        | None -> false
        | Some v -> (
            let k = next_safe_of s dst gid in
            match Seqs.nth1_opt (queue_of s gid) k with
            | Some pair ->
                msg_pair_equal pair (msg, src)
                && Proc.Set.for_all (fun r -> next_of s r gid > k) (View.set v)
            | None -> false))

  let step s = function
    | Createview v -> { s with created = View.Set.add v s.created }
    | Newview (v, p) ->
        let g = View.id v in
        {
          s with
          current_viewid = Proc.Map.add p (Gid.Bot.of_gid g) s.current_viewid;
          attempted = Gid.Map.add g (Proc.Set.add p (attempted_of s g)) s.attempted;
        }
    | Register p -> (
        match current_viewid_of s p with
        | None -> s
        | Some g ->
            {
              s with
              registered =
                Gid.Map.add g (Proc.Set.add p (registered_of s g)) s.registered;
            })
    | Gpsnd (p, m) -> (
        match current_viewid_of s p with
        | None -> s
        | Some g ->
            let q = Seqs.append (pending_of s p g) m in
            { s with pending = Pg_map.add (p, g) q s.pending })
    | Order (m, p, g) ->
        let pend = Seqs.remove_head (pending_of s p g) in
        let pending =
          (* Keep states normal: absent key ≡ empty sequence. *)
          if Seqs.is_empty pend then Pg_map.remove (p, g) s.pending
          else Pg_map.add (p, g) pend s.pending
        in
        let q = Seqs.append (queue_of s g) (m, p) in
        { s with pending; queue = Gid.Map.add g q s.queue }
    | Gprcv { dst; gid; _ } ->
        { s with next = Pg_map.add (dst, gid) (next_of s dst gid + 1) s.next }
    | Safe { dst; gid; _ } ->
        {
          s with
          next_safe =
            Pg_map.add (dst, gid) (next_safe_of s dst gid + 1) s.next_safe;
        }

  let is_external = function
    | Createview _ | Order _ -> false
    | Newview _ | Register _ | Gpsnd _ | Gprcv _ | Safe _ -> true

  (* The state described once (DESIGN.md §13): codec and equality derive
     from these fields, in the codec's field order. *)
  let record : (M.t, state) Check.Record.t =
    let open Check.Record in
    let module C = Check.Codec in
    let members name get =
      field name get (Fixed C.(gid_map proc_set)) (Gid.Map.equal Proc.Set.equal)
    in
    let counter name get = field name get (Fixed C.(pg_map int)) (Pg_map.equal Int.equal) in
    make
      (fun created current_viewid queue attempted registered pending next next_safe ->
        { created; current_viewid; queue; attempted; registered; pending; next; next_safe })
      [
        field "created" (fun s -> s.created) (Fixed C.view_set) View.Set.equal;
        field "current_viewid" (fun s -> s.current_viewid) (Fixed C.(proc_map gid_bot))
          (Proc.Map.equal Gid.Bot.equal);
        field "queue" (fun s -> s.queue) (Payload (fun m -> C.(gid_map (seqs (pair m proc)))))
          (Gid.Map.equal (Seqs.equal msg_pair_equal));
        members "attempted" (fun s -> s.attempted);
        members "registered" (fun s -> s.registered);
        field "pending" (fun s -> s.pending) (Payload (fun m -> C.(pg_map (seqs m))))
          (Pg_map.equal (Seqs.equal M.equal));
        counter "next" (fun s -> s.next);
        counter "next_safe" (fun s -> s.next_safe);
      ]

  let equal_state = Check.Record.equal record
  let codec_state = Check.Record.codec record

  (* Canonical full-state rendering, injective provided [M.to_buffer] is
     injective on the payload alphabet used.  Its bytes are pinned (they
     seed the explorer's per-state RNG, DESIGN.md §13): those of a [Format]
     rendering whose lists are cut-separated, so [Fill] puts in the line
     breaks [Format] did. *)
  let key_to_buffer buf s =
    let fill = Fill.start buf in
    let add = Buffer.add_string buf and chr = Buffer.add_char buf in
    let cut_list fold f m = Fill.sep_bindings ~sep:(fun () -> Fill.cut fill) fold f m in
    let pg (p, g) =
      Proc.to_buffer buf p;
      chr '.';
      Gid.to_buffer buf g
    in
    let counter k n =
      pg k;
      chr '=';
      add (string_of_int n);
      chr ';'
    in
    let members g ps =
      Gid.to_buffer buf g;
      chr ':';
      Proc.Set.to_buffer buf ps;
      chr ';'
    in
    let pair buf (m, p) =
      M.to_buffer buf m;
      Buffer.add_char buf '@';
      Proc.to_buffer buf p
    in
    chr 'C';
    View.Set.to_buffer buf s.created;
    add "|V[";
    cut_list Proc.Map.fold
      (fun p g ->
        Proc.to_buffer buf p;
        chr '=';
        Gid.Bot.to_buffer buf g;
        chr ';')
      s.current_viewid;
    add "]|A[";
    cut_list Gid.Map.fold members s.attempted;
    add "]|R[";
    cut_list Gid.Map.fold members s.registered;
    add "]|Q[";
    cut_list Gid.Map.fold
      (fun g q ->
        Gid.to_buffer buf g;
        chr ':';
        Seqs.to_buffer pair buf q;
        chr ';')
      s.queue;
    add "]|P[";
    cut_list Pg_map.fold
      (fun k q ->
        pg k;
        chr ':';
        Seqs.to_buffer M.to_buffer buf q;
        chr ';')
      s.pending;
    add "]|N[";
    cut_list Pg_map.fold counter s.next;
    add "]|S[";
    cut_list Pg_map.fold counter s.next_safe;
    chr ']';
    Fill.finish fill

  let state_key s =
    let buf = Buffer.create 256 in
    key_to_buffer buf s;
    Buffer.contents buf

  let pp_action ppf = function
    | Createview v -> Format.fprintf ppf "dvs-createview(%a)" View.pp v
    | Newview (v, p) ->
        Format.fprintf ppf "dvs-newview(%a)_%a" View.pp v Proc.pp p
    | Register p -> Format.fprintf ppf "dvs-register_%a" Proc.pp p
    | Gpsnd (p, m) -> Format.fprintf ppf "dvs-gpsnd(%a)_%a" M.pp m Proc.pp p
    | Order (m, p, g) ->
        Format.fprintf ppf "dvs-order(%a,%a,%a)" M.pp m Proc.pp p Gid.pp g
    | Gprcv { src; dst; msg; gid } ->
        Format.fprintf ppf "dvs-gprcv(%a)_%a,%a@%a" M.pp msg Proc.pp src Proc.pp
          dst Gid.pp gid
    | Safe { src; dst; msg; gid } ->
        Format.fprintf ppf "dvs-safe(%a)_%a,%a@%a" M.pp msg Proc.pp src Proc.pp
          dst Gid.pp gid

  let pp_state ppf s =
    Format.fprintf ppf
      "@[<v>created=%a;@ viewids=[%a];@ totreg=%a;@ totatt=%a@]" View.Set.pp
      s.created
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (p, g) -> Format.fprintf ppf "%a↦%a" Proc.pp p Gid.Bot.pp g))
      (Proc.Map.bindings s.current_viewid)
      View.Set.pp (tot_reg s) View.Set.pp (tot_att s)
end
