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

  let pkt_equal a b = Packet.compare M.compare a b = 0
  let in_channel s ~src ~dst pkt = Seqs.exists (pkt_equal pkt) (channel s ~src ~dst)

  let pp ppf s =
    Format.fprintf ppf "net: %d in flight, %d blocked pairs (%a)" (in_flight s)
      (List.length s.blocked) Fault.pp s.faults

  (* Canonical full-state rendering; [blocked] is sorted so states equal
     under [equal] (which is order-insensitive) render identically. *)
  let key_to_buffer buf s =
    let add = Buffer.add_string buf and chr = Buffer.add_char buf in
    let semi () = chr ';' in
    add "ch[";
    Fill.sep_bindings ~sep:semi Pg_map.fold
      (fun (src, dst) q ->
        Proc.to_buffer buf src;
        chr '>';
        Proc.to_buffer buf dst;
        chr ':';
        Seqs.to_buffer (Packet.to_buffer M.to_buffer) buf q)
      s.channels;
    add "]|bl[";
    List.iteri
      (fun i (p, q) ->
        if i > 0 then semi ();
        Proc.to_buffer buf p;
        chr '-';
        Proc.to_buffer buf q)
      (List.sort_uniq compare s.blocked);
    chr ']';
    (* Remaining fault budgets distinguish future behaviour, so they must
       be part of the dedup key whenever faults are possible; the lossless
       policy renders nothing, keeping the original key byte-identical. *)
    if Fault.is_faulty s.faults then begin
      add "|f[";
      add (string_of_int s.dropped);
      chr ',';
      add (string_of_int s.duplicated);
      chr ',';
      add (string_of_int s.reordered);
      chr ']'
    end

  let state_key s =
    let buf = Buffer.create 256 in
    key_to_buffer buf s;
    Buffer.contents buf

  (* [blocked] is written sorted-deduplicated and compares as a set.  The
     policy is fixed at construction, so encoding it stays canonical. *)
  let record : (M.t, state) Check.Record.t =
    let open Check.Record in
    let module C = Check.Codec in
    let count name get = field name get (Fixed C.int) Int.equal ~family:(Family "faults") in
    let subset a b = List.for_all (fun x -> List.mem x b) a in
    make
      (fun channels blocked faults dropped duplicated reordered ->
        { channels; blocked; faults; dropped; duplicated; reordered })
      [
        field "channels" (fun s -> s.channels)
          (Payload (fun m -> C.(pg_map (seqs (Packet.codec m)))))
          (Pg_map.equal (Seqs.equal pkt_equal))
          ~permute:(fun pi channels ->
            Pg_map.fold
              (fun (src, dst) q acc ->
                Pg_map.add (pi src, pi dst) (Seqs.applytoall (Packet.permute pi) q) acc)
              channels Pg_map.empty);
        field "blocked" (fun s -> s.blocked)
          (Fixed C.(via ~to_:(List.sort_uniq compare) ~of_:Fun.id (list (pair proc proc))))
          (fun a b -> subset a b && subset b a) ~family:(Family "blocked")
          ~permute:(fun pi -> List.map (fun (p, q) -> (pi p, pi q)));
        field "faults" (fun s -> s.faults) (Fixed Fault.codec) Fault.equal;
        count "dropped" (fun s -> s.dropped);
        count "duplicated" (fun s -> s.duplicated);
        count "reordered" (fun s -> s.reordered);
      ]

  let equal = Check.Record.equal record
  let permute = Check.Record.permute record
  let codec_state = Check.Record.codec record
end
