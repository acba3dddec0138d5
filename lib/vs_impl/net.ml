open Prelude

module Make (M : Msg_intf.S) = struct
  type packet = M.t Packet.t

  type state = {
    channels : packet Seqs.t Pg_map.t;
    blocked : (Proc.t * Proc.t) list;
    faults : Fault.policy;
    dropped : int;
    duplicated : int;
    reordered : int;
  }

  let initial =
    {
      channels = Pg_map.empty;
      blocked = [];
      faults = Fault.none;
      dropped = 0;
      duplicated = 0;
      reordered = 0;
    }

  let with_faults s faults =
    { s with faults; dropped = 0; duplicated = 0; reordered = 0 }

  let connected s p q =
    not (List.exists (fun (a, b) -> Proc.equal a p && Proc.equal b q) s.blocked)

  let channel s ~src ~dst =
    Pg_map.find_or ~default:Seqs.empty (src, dst) s.channels

  let pkt_kind : packet -> string = function
    | Packet.Fwd _ -> "fwd"
    | Packet.Seq _ -> "seq"
    | Packet.Ack _ -> "ack"
    | Packet.Stable _ -> "stable"

  let send ?metrics s ~src ~dst pkt =
    (match metrics with
    | None -> ()
    | Some m ->
        Obs.Metrics.incr m "net.sent";
        Obs.Metrics.incr m ("net.sent." ^ pkt_kind pkt));
    {
      s with
      channels = Pg_map.add (src, dst) (Seqs.append (channel s ~src ~dst) pkt) s.channels;
    }

  let head s ~src ~dst = Seqs.head_opt (channel s ~src ~dst)

  let deliverable s ~src ~dst =
    if connected s src dst then head s ~src ~dst else None

  let pop ?metrics s ~src ~dst =
    (match metrics with
    | None -> ()
    | Some m -> Obs.Metrics.incr m "net.delivered");
    let q = Seqs.remove_head (channel s ~src ~dst) in
    let channels =
      if Seqs.is_empty q then Pg_map.remove (src, dst) s.channels
      else Pg_map.add (src, dst) q s.channels
    in
    { s with channels }

  let reconfigure ?metrics s components =
    (match metrics with
    | None -> ()
    | Some m -> Obs.Metrics.incr m "net.reconfigures");
    let component_of p = List.find_opt (Proc.Set.mem p) components in
    let all =
      List.fold_left Proc.Set.union Proc.Set.empty components |> Proc.Set.elements
    in
    let blocked =
      List.concat_map
        (fun p ->
          List.filter_map
            (fun q ->
              match (component_of p, component_of q) with
              | Some cp, Some cq when Proc.Set.equal cp cq -> None
              | _ -> Some (p, q))
            all)
        all
    in
    { s with blocked }

  let in_flight s = Pg_map.fold (fun _ q n -> n + Seqs.length q) s.channels 0

  (* ------------------------------------------------------------------ *)
  (* Fault injection.  Each mutation consumes one unit of its budget;    *)
  (* [can_*] are the enabledness gates the {!Stack} composition checks.  *)
  (* With the default [Fault.none] policy every budget is 0, so none of  *)
  (* these is ever enabled and the transport stays lossless FIFO.        *)
  (* ------------------------------------------------------------------ *)

  let can_drop s ~src ~dst =
    s.dropped < s.faults.Fault.max_drops
    && not (Seqs.is_empty (channel s ~src ~dst))

  let can_duplicate s ~src ~dst =
    s.duplicated < s.faults.Fault.max_duplicates
    && not (Seqs.is_empty (channel s ~src ~dst))

  let can_reorder s ~src ~dst =
    s.reordered < s.faults.Fault.max_reorders
    && Seqs.length (channel s ~src ~dst) >= 2

  let set_channel s ~src ~dst q =
    let channels =
      if Seqs.is_empty q then Pg_map.remove (src, dst) s.channels
      else Pg_map.add (src, dst) q s.channels
    in
    { s with channels }

  (* Lose the head packet. *)
  let drop ?metrics s ~src ~dst =
    (match metrics with
    | None -> ()
    | Some m -> Obs.Metrics.incr m "net.dropped");
    let s = set_channel s ~src ~dst (Seqs.remove_head (channel s ~src ~dst)) in
    { s with dropped = s.dropped + 1 }

  (* Re-enqueue a copy of the head at the tail: it will arrive again later. *)
  let duplicate ?metrics s ~src ~dst =
    (match metrics with
    | None -> ()
    | Some m -> Obs.Metrics.incr m "net.duplicated");
    let q = channel s ~src ~dst in
    let s = set_channel s ~src ~dst (Seqs.append q (Seqs.head q)) in
    { s with duplicated = s.duplicated + 1 }

  (* Rotate the head to the tail, permuting the FIFO order. *)
  let reorder ?metrics s ~src ~dst =
    (match metrics with
    | None -> ()
    | Some m -> Obs.Metrics.incr m "net.reordered");
    let q = channel s ~src ~dst in
    let q' = Seqs.append (Seqs.remove_head q) (Seqs.head q) in
    let s = set_channel s ~src ~dst q' in
    { s with reordered = s.reordered + 1 }

  let permute pi s =
    {
      s with
      channels =
        Pg_map.fold
          (fun (src, dst) q acc ->
            Pg_map.add (pi src, pi dst) (Seqs.applytoall (Packet.permute pi) q) acc)
          s.channels Pg_map.empty;
      blocked = List.map (fun (p, q) -> (pi p, pi q)) s.blocked;
    }

  let in_channel s ~src ~dst pkt =
    Seqs.exists
      (fun p -> Packet.compare M.compare p pkt = 0)
      (channel s ~src ~dst)

  let equal a b =
    Pg_map.equal (Seqs.equal (fun x y -> Packet.compare M.compare x y = 0))
      a.channels b.channels
    && List.length a.blocked = List.length b.blocked
    && List.for_all (fun pair -> List.mem pair b.blocked) a.blocked
    && a.dropped = b.dropped && a.duplicated = b.duplicated
    && a.reordered = b.reordered

  let pp ppf s =
    Format.fprintf ppf "net: %d in flight, %d blocked pairs (%a)" (in_flight s)
      (List.length s.blocked) Fault.pp s.faults

  (* Canonical full-state rendering; [blocked] is sorted so states equal
     under [equal] (which is order-insensitive) render identically. *)
  let state_key s =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    let semi ppf () = Format.pp_print_string ppf ";" in
    Format.fprintf ppf "ch[%a]|bl[%a]"
      (Format.pp_print_list ~pp_sep:semi (fun ppf ((src, dst), q) ->
           Format.fprintf ppf "%a>%a:%a" Proc.pp src Proc.pp dst
             (Seqs.pp (Packet.pp M.pp)) q))
      (Pg_map.bindings s.channels)
      (Format.pp_print_list ~pp_sep:semi (fun ppf (p, q) ->
           Format.fprintf ppf "%a-%a" Proc.pp p Proc.pp q))
      (List.sort_uniq compare s.blocked);
    (* Remaining fault budgets distinguish future behaviour, so they must
       be part of the dedup key whenever faults are possible; the lossless
       policy renders nothing, keeping the original key byte-identical. *)
    if Fault.is_faulty s.faults then
      Format.fprintf ppf "|f[%d,%d,%d]" s.dropped s.duplicated s.reordered;
    Format.pp_print_flush ppf ();
    Buffer.contents buf

  let blocked_c = Check.Codec.(list (pair proc proc))

  (* Flat canonical codec.  [blocked] is written sorted-deduplicated so
     states equal under [equal] (order-insensitive on that field) encode
     identically; the fault policy and budget counters are encoded in
     full, which is canonical within any one exploration (the policy is
     fixed at construction and never varies across reachable states). *)
  let codec_state (m : M.t Check.Codec.f) : state Check.Codec.f =
    let open Check.Codec in
    let channels_c = pg_map (seqs (Packet.codec m)) in
    {
      wr =
        (fun b s ->
          channels_c.wr b s.channels;
          blocked_c.wr b (List.sort_uniq compare s.blocked);
          Fault.codec.wr b s.faults;
          int.wr b s.dropped;
          int.wr b s.duplicated;
          int.wr b s.reordered);
      rd =
        (fun r ->
          let channels = channels_c.rd r in
          let blocked = blocked_c.rd r in
          let faults = Fault.codec.rd r in
          let dropped = int.rd r in
          let duplicated = int.rd r in
          let reordered = int.rd r in
          { channels; blocked; faults; dropped; duplicated; reordered });
    }
end
