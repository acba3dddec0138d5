open Prelude

module Make (M : Msg_intf.S) = struct
  type packet = M.t Packet.t

  type variant = Faithful | No_dedup | No_retransmit

  type state = {
    me : Proc.t;
    cur : View.t option;
    views_seen : View.t Gid.Map.t;
    outq : M.t Seqs.t Gid.Map.t;
    fwd_log : M.t Seqs.t Gid.Map.t;
    seq_log : (M.t * Proc.t) Seqs.t Gid.Map.t;
    fwd_seen : int Pg_map.t;
    bcast_sent : int Pg_map.t;
    acked_by : int Pg_map.t;
    stable_sent : int Pg_map.t;
    rcv_buf : (M.t * Proc.t) Pg_map.t;
    next_deliver : int Gid.Map.t;
    next_safe : int Gid.Map.t;
    acked_upto : int Gid.Map.t;
    stable_upto : int Gid.Map.t;
    variant : variant;
    drop_stale : bool;
  }

  let initial ?(variant = Faithful) ?(drop_stale = false) ~p0 p =
    let member = Proc.Set.mem p p0 in
    let v0 = View.initial p0 in
    {
      me = p;
      cur = (if member then Some v0 else None);
      views_seen = (if member then Gid.Map.singleton Gid.g0 v0 else Gid.Map.empty);
      outq = Gid.Map.empty;
      fwd_log = Gid.Map.empty;
      seq_log = Gid.Map.empty;
      fwd_seen = Pg_map.empty;
      bcast_sent = Pg_map.empty;
      acked_by = Pg_map.empty;
      stable_sent = Pg_map.empty;
      rcv_buf = Pg_map.empty;
      next_deliver = Gid.Map.empty;
      next_safe = Gid.Map.empty;
      acked_upto = Gid.Map.empty;
      stable_upto = Gid.Map.empty;
      variant;
      drop_stale;
    }

  let sequencer v = Proc.Set.min_elt (View.set v)

  let cur_id st =
    match st.cur with None -> Gid.Bot.bot | Some v -> Gid.Bot.of_gid (View.id v)

  let gmap_seq m g = Option.value ~default:Seqs.empty (Gid.Map.find_opt g m)
  let gmap_int ?(default = 1) m g = Option.value ~default (Gid.Map.find_opt g m)
  let outq_of st g = gmap_seq st.outq g
  let fwd_log_of st g = gmap_seq st.fwd_log g
  let seq_log_of st g = gmap_seq st.seq_log g
  let fwd_seen_of st ~src g = Pg_map.find_or ~default:0 (src, g) st.fwd_seen
  let next_deliver_of st g = gmap_int st.next_deliver g
  let next_safe_of st g = gmap_int st.next_safe g
  let acked_upto_of st g = gmap_int ~default:0 st.acked_upto g
  let stable_upto_of st g = gmap_int ~default:0 st.stable_upto g

  (* ---------------- inputs ---------------- *)

  let on_gpsnd st m =
    match st.cur with
    | None -> st
    | Some v ->
        let g = View.id v in
        { st with outq = Gid.Map.add g (Seqs.append (outq_of st g) m) st.outq }

  let on_newview ?metrics st v =
    (match metrics with
    | None -> ()
    | Some m -> Obs.Metrics.incr m "engine.newview");
    {
      st with
      cur = Some v;
      views_seen = Gid.Map.add (View.id v) v st.views_seen;
    }

  (* A packet of a view strictly below my current one.  Only discarded
     when [drop_stale] (set under a faulty transport): the lossless engine
     keeps absorbing superseded-view traffic into that view's frozen
     per-view state, and changing that would perturb fault-free runs. *)
  let stale st gid =
    st.drop_stale
    && match st.cur with Some v -> Gid.gt (View.id v) gid | None -> false

  (* Does this [Fwd] advance the per-sender watermark (and hence get
     sequenced)?  [No_dedup] is the seeded-defect variant: it accepts
     everything, double-sequencing duplicates. *)
  let accepts_fwd st ~src ~gid ~fsn =
    (not (stale st gid))
    &&
    match st.variant with
    | No_dedup -> true
    | Faithful | No_retransmit -> fsn = fwd_seen_of st ~src gid + 1

  (* Trace vocabulary (component "vs.engine"): one "sequenced" point per
     position assigned by the sequencer, one "deliver" / "safe" point per
     gprcv / safe indication — the stream Obs.Monitor's built-in rules
     check online.  [?sink] defaults to no hook: untraced runs are
     byte-identical to the uninstrumented engine. *)
  let trace_component = "vs.engine"

  let on_packet ?metrics ?sink st ~src (pkt : packet) =
    (match metrics with
    | None -> ()
    | Some m -> Obs.Metrics.incr m "engine.packets_in");
    if stale st (Packet.gid pkt) then begin
      (match metrics with
      | None -> ()
      | Some m -> Obs.Metrics.incr m "engine.stale_dropped");
      st
    end
    else
      match pkt with
      | Packet.Fwd { gid; fsn; payload } ->
          (* as (presumed) sequencer of [gid]: assign the next position,
             unless the watermark says this forward was already sequenced
             (a duplicate or an out-of-order survivor of a reordering —
             the sender's go-back-N retransmission recovers the gap) *)
          if not (accepts_fwd st ~src ~gid ~fsn) then begin
            (match metrics with
            | None -> ()
            | Some m -> Obs.Metrics.incr m "engine.dups_dropped");
            st
          end
          else begin
            (match sink with
            | None -> ()
            | Some s ->
                Obs.Trace.point s ~component:trace_component ~cls:"sequenced"
                  [
                    ("p", Obs.Trace.Str (Proc.to_string st.me));
                    ("gid", Obs.Trace.Str (Gid.to_string gid));
                    ("src", Obs.Trace.Str (Proc.to_string src));
                    ("fsn", Obs.Trace.Int fsn);
                    ("sn", Obs.Trace.Int (Seqs.length (seq_log_of st gid) + 1));
                  ]);
            {
              st with
              seq_log =
                Gid.Map.add gid
                  (Seqs.append (seq_log_of st gid) (payload, src))
                  st.seq_log;
              fwd_seen =
                Pg_map.add (src, gid)
                  (max (fwd_seen_of st ~src gid) fsn)
                  st.fwd_seen;
            }
          end
      | Packet.Seq { gid; sn; origin; payload } ->
          { st with rcv_buf = Pg_map.add (gid, sn) (payload, origin) st.rcv_buf }
      | Packet.Ack { gid; upto } ->
          let old = Pg_map.find_or ~default:0 (src, gid) st.acked_by in
          { st with acked_by = Pg_map.add (src, gid) (max old upto) st.acked_by }
      | Packet.Stable { gid; upto } ->
          let old = stable_upto_of st gid in
          { st with stable_upto = Gid.Map.add gid (max old upto) st.stable_upto }

  (* ---------------- outputs ---------------- *)

  let fwd_send st =
    match st.cur with
    | None -> None
    | Some v -> (
        let g = View.id v in
        match Seqs.head_opt (outq_of st g) with
        | Some m ->
            let fsn = Seqs.length (fwd_log_of st g) + 1 in
            Some (sequencer v, Packet.Fwd { gid = g; fsn; payload = m })
        | None -> None)

  let sent_fwd st =
    match st.cur with
    | None -> st
    | Some v ->
        let g = View.id v in
        let out = outq_of st g in
        let fwd_log =
          Gid.Map.add g
            (Seqs.append (fwd_log_of st g) (Seqs.head out))
            st.fwd_log
        in
        let q = Seqs.remove_head out in
        let outq =
          if Seqs.is_empty q then Gid.Map.remove g st.outq
          else Gid.Map.add g q st.outq
        in
        { st with outq; fwd_log }

  (* sequencer: rebroadcast log entries per destination, in order *)
  let bcast_sends st =
    Gid.Map.fold
      (fun g log acc ->
        match Gid.Map.find_opt g st.views_seen with
        | Some v when Proc.equal (sequencer v) st.me ->
            Proc.Set.fold
              (fun dst acc ->
                let sent = Pg_map.find_or ~default:0 (dst, g) st.bcast_sent in
                if sent < Seqs.length log then begin
                  let payload, origin = Seqs.nth1 log (sent + 1) in
                  (dst, Packet.Seq { gid = g; sn = sent + 1; origin; payload })
                  :: acc
                end
                else acc)
              (View.set v) acc
        | Some _ | None -> acc)
      st.seq_log []

  let sent_bcast st ~dst ~gid =
    let sent = Pg_map.find_or ~default:0 (dst, gid) st.bcast_sent in
    { st with bcast_sent = Pg_map.add (dst, gid) (sent + 1) st.bcast_sent }

  (* member: acknowledge delivered prefix, per view *)
  let ack_sends st =
    Gid.Map.fold
      (fun g nd acc ->
        let delivered = nd - 1 in
        if acked_upto_of st g < delivered then begin
          match Gid.Map.find_opt g st.views_seen with
          | Some v ->
              (sequencer v, Packet.Ack { gid = g; upto = delivered }) :: acc
          | None -> acc
        end
        else acc)
      st.next_deliver []

  let sent_ack st ~gid ~upto =
    { st with acked_upto = Gid.Map.add gid upto st.acked_upto }

  (* sequencer: announce stable prefix per destination *)
  let stable_of st v =
    let g = View.id v in
    Proc.Set.fold
      (fun r acc -> min acc (Pg_map.find_or ~default:0 (r, g) st.acked_by))
      (View.set v) max_int

  let stable_sends st =
    Gid.Map.fold
      (fun g v acc ->
        if Proc.equal (sequencer v) st.me then begin
          let stable = stable_of st v in
          if stable <= 0 || stable = max_int then acc
          else
            Proc.Set.fold
              (fun dst acc ->
                if Pg_map.find_or ~default:0 (dst, g) st.stable_sent < stable then
                  (dst, Packet.Stable { gid = g; upto = stable }) :: acc
                else acc)
              (View.set v) acc
        end
        else acc)
      st.views_seen []

  let sent_stable st ~dst ~gid ~upto =
    { st with stable_sent = Pg_map.add (dst, gid) upto st.stable_sent }

  (* ---------------- retransmission (faulty transport only) ----------- *)

  (* My messages sequenced so far, as far as I can tell: each own-origin
     entry of the view's order that reached my [rcv_buf] certifies one
     accepted forward.  A lower bound — re-sending an already-accepted
     [fsn] is discarded by the watermark, so underestimating is safe.
     [rcv_buf] keys sort by gid, then sn, so one split drops every
     earlier view's entries (the bulk of a long run's buffer) and the
     fold walks view [g] and any later one; a buffer that starts at [g]
     needs no split. *)
  let own_sequenced st g =
    let mine (g', _) (_, origin) n =
      if Gid.equal g' g && Proc.equal origin st.me then n + 1 else n
    in
    if Pg_map.is_empty st.rcv_buf then 0
    else
      let (g0, _), _ = Pg_map.min_binding st.rcv_buf in
      if Gid.ge g0 g then Pg_map.fold mine st.rcv_buf 0
      else
        let _, first, from = Pg_map.split (g, min_int) st.rcv_buf in
        let n = match first with Some e -> mine (g, min_int) e 0 | None -> 0 in
        Pg_map.fold mine from n

  (* Re-sends of possibly-lost packets, all within the current view and
     all idempotent at the receiver (forward watermark, [rcv_buf] add,
     cumulative max-merges).  The {!Stack} only schedules these under a
     faulty policy, and only when no identical packet is already in
     flight, so the lossless behaviour and the finite-exploration bound
     are both preserved.  The [No_retransmit] seeded-defect variant offers
     nothing: lost packets then strand the protocol in non-quiescent
     candidate-free states, which the analyzer reports as deadlocks. *)
  let retransmit_sends st =
    match (st.variant, st.cur) with
    | No_retransmit, _ | _, None -> []
    | (Faithful | No_dedup), Some v ->
        let g = View.id v in
        let seq = sequencer v in
        (* sender: forwards beyond the sequenced lower bound *)
        let fwds =
          let log = fwd_log_of st g in
          let lb = own_sequenced st g in
          List.init
            (max 0 (Seqs.length log - lb))
            (fun i ->
              let fsn = lb + 1 + i in
              (seq, Packet.Fwd { gid = g; fsn; payload = Seqs.nth1 log fsn }))
        in
        (* sequencer: rebroadcasts sent but not yet covered by the
           destination's cumulative ack *)
        let seqs =
          if not (Proc.equal seq st.me) then []
          else
            let log = seq_log_of st g in
            Proc.Set.fold
              (fun dst acc ->
                let acked = Pg_map.find_or ~default:0 (dst, g) st.acked_by in
                let sent = Pg_map.find_or ~default:0 (dst, g) st.bcast_sent in
                List.init
                  (max 0 (sent - acked))
                  (fun i ->
                    let sn = acked + 1 + i in
                    let payload, origin = Seqs.nth1 log sn in
                    (dst, Packet.Seq { gid = g; sn; origin; payload }))
                @ acc)
              (View.set v) []
        in
        (* member: the latest cumulative ack, while the stable bound has
           not yet certified the sequencer heard it *)
        let acks =
          let upto = acked_upto_of st g in
          if upto > 0 && stable_upto_of st g < upto then
            [ (seq, Packet.Ack { gid = g; upto }) ]
          else []
        in
        (* sequencer: the current stable bound (a member may have missed
           it; there is no ack-of-stable, so this is offered as long as a
           bound exists — the in-flight gate keeps it from accumulating) *)
        let stables =
          if not (Proc.equal seq st.me) then []
          else
            let stable = stable_of st v in
            if stable <= 0 || stable = max_int then []
            else
              Proc.Set.fold
                (fun dst acc ->
                  if Pg_map.find_or ~default:0 (dst, g) st.stable_sent = stable
                  then (dst, Packet.Stable { gid = g; upto = stable }) :: acc
                  else acc)
                (View.set v) []
        in
        fwds @ seqs @ acks @ stables

  let deliverable st =
    match st.cur with
    | None -> None
    | Some v -> (
        let g = View.id v in
        match Pg_map.find_opt (g, next_deliver_of st g) st.rcv_buf with
        | Some (m, origin) -> Some (origin, m)
        | None -> None)

  let delivered ?metrics ?sink st =
    (match metrics with
    | None -> ()
    | Some m -> Obs.Metrics.incr m "engine.deliveries");
    match st.cur with
    | None -> st
    | Some v ->
        let g = View.id v in
        let sn = next_deliver_of st g in
        (match sink with
        | None -> ()
        | Some s ->
            let origin, msg =
              match Pg_map.find_opt (g, sn) st.rcv_buf with
              | Some (m, o) -> (Proc.to_string o, Format.asprintf "%a" M.pp m)
              | None -> ("?", "?")
            in
            Obs.Trace.point s ~component:trace_component ~cls:"deliver"
              [
                ("p", Obs.Trace.Str (Proc.to_string st.me));
                ("gid", Obs.Trace.Str (Gid.to_string g));
                ("sn", Obs.Trace.Int sn);
                ("origin", Obs.Trace.Str origin);
                ("msg", Obs.Trace.Str msg);
              ]);
        { st with next_deliver = Gid.Map.add g (sn + 1) st.next_deliver }

  (* The delivered prefix of a view's total order, in delivery order —
     positions (g, 1 .. next_deliver-1) of [rcv_buf].  Everything
     delivered is necessarily buffered (delivery reads the buffer, and
     only [retire] evicts, whole superseded views), so the walk is total
     over the prefix.  [rcv_buf]
     keys sort by gid, then sn, so two splits cut out exactly the keys
     (g, 1 .. upto), and one fold lists them, with no [Seq] node per
     entry.  Live runtime snapshots compare these byte-for-byte across
     members. *)
  let delivered_range st g =
    let upto = next_deliver_of st g - 1 in
    let _, _, from_1 = Pg_map.split (g, 0) st.rcv_buf in
    let prefix, _, _ = Pg_map.split (g, upto + 1) from_1 in
    prefix

  let delivered_prefix st g =
    List.rev (Pg_map.fold (fun _ v acc -> v :: acc) (delivered_range st g) [])

  let iter_delivered st g f =
    Pg_map.iter (fun _ v -> f v) (delivered_range st g)

  let safe_ready st =
    match st.cur with
    | None -> None
    | Some v -> (
        let g = View.id v in
        let k = next_safe_of st g in
        if k > stable_upto_of st g then None
        else
          match Pg_map.find_opt (g, k) st.rcv_buf with
          | Some (m, origin) -> Some (origin, m)
          | None -> None)

  let safed ?metrics ?sink st =
    (match metrics with
    | None -> ()
    | Some m -> Obs.Metrics.incr m "engine.safe_indications");
    match st.cur with
    | None -> st
    | Some v ->
        let g = View.id v in
        let sn = next_safe_of st g in
        (match sink with
        | None -> ()
        | Some s ->
            Obs.Trace.point s ~component:trace_component ~cls:"safe"
              [
                ("p", Obs.Trace.Str (Proc.to_string st.me));
                ("gid", Obs.Trace.Str (Gid.to_string g));
                ("sn", Obs.Trace.Int sn);
              ]);
        { st with next_safe = Gid.Map.add g (sn + 1) st.next_safe }

  (* Every per-view entry of a view below the current one, dropped.
     With [drop_stale] no later packet touches such a view, and the
     local outputs that still read one (rebroadcasts, acks, stable
     announcements of a superseded view) are stale at every receiver
     that could get them.  [rcv_buf] and the [Pg_map]s keyed by
     (proc, gid) hold the bulk; one split cuts the first, the rest are
     a few entries per view. *)
  let retire st =
    match st.cur with
    | None -> st
    | Some v ->
        let g = View.id v in
        let from_g m =
          let _, at, above = Gid.Map.split g m in
          match at with Some x -> Gid.Map.add g x above | None -> above
        in
        let pg_from_g m = Pg_map.filter (fun (_, g') _ -> Gid.ge g' g) m in
        let rcv_buf =
          let _, at, above = Pg_map.split (g, min_int) st.rcv_buf in
          match at with Some x -> Pg_map.add (g, min_int) x above | None -> above
        in
        {
          st with
          views_seen = from_g st.views_seen;
          outq = from_g st.outq;
          fwd_log = from_g st.fwd_log;
          seq_log = from_g st.seq_log;
          fwd_seen = pg_from_g st.fwd_seen;
          bcast_sent = pg_from_g st.bcast_sent;
          acked_by = pg_from_g st.acked_by;
          stable_sent = pg_from_g st.stable_sent;
          rcv_buf;
          next_deliver = from_g st.next_deliver;
          next_safe = from_g st.next_safe;
          acked_upto = from_g st.acked_upto;
          stable_upto = from_g st.stable_upto;
        }

  let pp ppf st =
    Format.fprintf ppf "engine %a: cur=%a, %d views seen" Proc.pp st.me
      Gid.Bot.pp (cur_id st)
      (Gid.Map.cardinal st.views_seen)

  (* Canonical full-state rendering (dedup-key component for exhaustive
     exploration); injective whenever [M.pp] is. *)
  let state_key st =
    let buf = Buffer.create 512 in
    let ppf = Format.formatter_of_buffer buf in
    let semi ppf () = Format.pp_print_string ppf ";" in
    let plist pp_x ppf xs = Format.pp_print_list ~pp_sep:semi pp_x ppf xs in
    let mp ppf (m, q) = Format.fprintf ppf "%a@%a" M.pp m Proc.pp q in
    let gmap pp_x ppf m =
      plist (fun ppf (g, x) -> Format.fprintf ppf "%a:%a" Gid.pp g pp_x x) ppf
        (Gid.Map.bindings m)
    in
    let gints ppf m = gmap Format.pp_print_int ppf m in
    let pgints ppf m =
      plist
        (fun ppf ((p, g), n) ->
          Format.fprintf ppf "%a.%a=%d" Proc.pp p Gid.pp g n)
        ppf (Pg_map.bindings m)
    in
    Format.fprintf ppf
      "me%a|cur%a|vs[%a]|oq[%a]|fl[%a]|sl[%a]|fw[%a]|bs[%a]|ab[%a]|ss[%a]|rb[%a]|nd[%a]|ns[%a]|au[%a]|su[%a]"
      Proc.pp st.me
      (fun ppf -> function
        | None -> Format.pp_print_string ppf "⊥"
        | Some v -> View.pp ppf v)
      st.cur (gmap View.pp) st.views_seen
      (gmap (Seqs.pp M.pp)) st.outq
      (gmap (Seqs.pp M.pp)) st.fwd_log
      (gmap (Seqs.pp mp)) st.seq_log pgints st.fwd_seen pgints st.bcast_sent
      pgints st.acked_by pgints st.stable_sent
      (plist (fun ppf ((g, sn), x) ->
           Format.fprintf ppf "%a.%d=%a" Gid.pp g sn mp x))
      (Pg_map.bindings st.rcv_buf)
      gints st.next_deliver gints st.next_safe gints st.acked_upto gints
      st.stable_upto;
    Format.pp_print_flush ppf ();
    Buffer.contents buf

  let variant_c =
    Check.Codec.via Check.Codec.byte
      ~to_:(function Faithful -> 0 | No_dedup -> 1 | No_retransmit -> 2)
      ~of_:(function
        | 0 -> Faithful | 1 -> No_dedup | 2 -> No_retransmit
        | _ -> raise (Check.Codec.Malformed "engine variant tag"))

  (* [variant] and [drop_stale] are constant across one exploration, so
     encoding them keeps the image canonical and makes decode total.  The
     counter maps are keyed (processor, view-id) and re-keyed by [permute];
     [rcv_buf] is keyed (view-id, sequence-number): only origins move. *)
  let record : (M.t, state) Check.Record.t =
    let open Check.Record in
    let module C = Check.Codec in
    let mp_equal (m, p) (m', p') = M.equal m m' && Proc.equal p p' in
    let origin pi (m, p) = (m, pi p) in
    let log name get =
      field name get (Payload (fun m -> C.(gid_map (seqs m))))
        (Gid.Map.equal (Seqs.equal M.equal)) ~family:(Family name)
    in
    let rekey pi m = Pg_map.fold (fun (p, g) v -> Pg_map.add (pi p, g) v) m Pg_map.empty in
    let counter name get =
      field name get (Fixed C.(pg_map int)) (Pg_map.equal Int.equal) ~permute:rekey
        ~family:(Family name)
    in
    let pointer ?family name get =
      field name get (Fixed C.(gid_map int)) (Gid.Map.equal Int.equal)
        ~family:(Family (Option.value family ~default:name))
    in
    make
      (fun me cur views_seen outq fwd_log seq_log fwd_seen bcast_sent acked_by stable_sent
           rcv_buf next_deliver next_safe acked_upto stable_upto variant drop_stale ->
        { me; cur; views_seen; outq; fwd_log; seq_log; fwd_seen; bcast_sent; acked_by;
          stable_sent; rcv_buf; next_deliver; next_safe; acked_upto; stable_upto;
          variant; drop_stale })
      [
        field "me" (fun st -> st.me) (Fixed C.proc) Proc.equal ~permute:(fun pi -> pi);
        field "cur" (fun st -> st.cur) (Fixed C.(option view))
          (Option.equal View.equal) ~family:(Family "cur")
          ~permute:(fun pi -> Option.map (View.permute pi));
        field "views_seen" (fun st -> st.views_seen) (Fixed C.(gid_map view))
          (Gid.Map.equal View.equal) ~family:(Family "views_seen")
          ~permute:(fun pi -> Gid.Map.map (View.permute pi));
        log "outq" (fun st -> st.outq);
        log "fwd_log" (fun st -> st.fwd_log);
        field "seq_log" (fun st -> st.seq_log)
          (Payload (fun m -> C.(gid_map (seqs (pair m proc)))))
          (Gid.Map.equal (Seqs.equal mp_equal)) ~family:(Family "seq_log")
          ~permute:(fun pi -> Gid.Map.map (Seqs.applytoall (origin pi)));
        counter "fwd_seen" (fun st -> st.fwd_seen);
        counter "bcast_sent" (fun st -> st.bcast_sent);
        counter "acked_by" (fun st -> st.acked_by);
        counter "stable_sent" (fun st -> st.stable_sent);
        field "rcv_buf" (fun st -> st.rcv_buf)
          (Payload (fun m -> C.(pg_map (pair m proc))))
          (Pg_map.equal mp_equal) ~family:(Family "rcv_buf")
          ~permute:(fun pi -> Pg_map.map (origin pi));
        pointer "next_deliver" (fun st -> st.next_deliver);
        pointer "next_safe" (fun st -> st.next_safe) ~family:"next_safe_e";
        pointer "acked_upto" (fun st -> st.acked_upto);
        pointer "stable_upto" (fun st -> st.stable_upto);
        field "variant" (fun st -> st.variant) (Fixed variant_c) ( = );
        field "drop_stale" (fun st -> st.drop_stale) (Fixed C.bool) Bool.equal;
      ]

  let equal = Check.Record.equal record
  let permute = Check.Record.permute record
  let codec_state = Check.Record.codec record
end
