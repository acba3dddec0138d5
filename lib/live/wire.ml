open Prelude

type packet = string Vs_impl.Packet.t

type delivery = { gid : Gid.t; sn : int; origin : Proc.t; msg : string }

type frame =
  | Hello of { proc : Proc.t; trace : string option }
  | Pkt of { src : Proc.t; dst : Proc.t; pkt : packet }
  | View_note of View.t
  | Client of string
  | Trace_line of string
  | Snapshot_req
  | Snapshot_part of { gid : Gid.t; piece : string }
  | Snapshot_done of { views : int }
  | Shutdown
  | Delivered of { proc : Proc.t; events : int; records : delivery list }
  | Violation of Obs.Monitor.violation

let pp ppf = function
  | Hello { proc; trace } ->
      Format.fprintf ppf "hello %a%a" Proc.pp proc
        (Format.pp_print_option (fun ppf -> Format.fprintf ppf " trace %S"))
        trace
  | Pkt { src; dst; pkt } ->
      Format.fprintf ppf "pkt %a->%a %a" Proc.pp src Proc.pp dst
        (Vs_impl.Packet.pp Format.pp_print_string)
        pkt
  | View_note v -> Format.fprintf ppf "view %a" View.pp v
  | Client m -> Format.fprintf ppf "client %S" m
  | Trace_line l -> Format.fprintf ppf "trace %S" l
  | Snapshot_req -> Format.pp_print_string ppf "snapshot?"
  | Snapshot_part { gid; piece } ->
      Format.fprintf ppf "snapshot part %a (%d bytes)" Gid.pp gid
        (String.length piece)
  | Snapshot_done { views } -> Format.fprintf ppf "snapshot done (%d views)" views
  | Shutdown -> Format.pp_print_string ppf "shutdown"
  | Delivered { proc; events; records } ->
      Format.fprintf ppf "delivered %a (%d events)%a" Proc.pp proc events
        (Format.pp_print_list (fun ppf d ->
             Format.fprintf ppf " %a#%d=%a:%S" Gid.pp d.gid d.sn Proc.pp
               d.origin d.msg))
        records
  | Violation v -> Format.fprintf ppf "violation %a" Obs.Monitor.pp_violation v

let entry_f : (string * Proc.t) Check.Codec.f = Check.Codec.(pair string proc)
let prefix_f = Check.Codec.list entry_f
let prefix_codec = Check.Codec.make ~id:"live-prefix" ~version:1 prefix_f
let prefix_image prefix = Check.Codec.image prefix_f prefix
let prefix_image_iter iter = Check.Codec.list_image entry_f iter
let prefix_of_image image = Check.Codec.of_image prefix_f image

(* A Pkt frame's body starts with this tag, then [src] and [dst]:
   {!pkt_dst} reads them there. *)
let pkt_tag = 1

let frame_f : frame Check.Codec.f =
  let open Check.Codec in
  let packet_f = Vs_impl.Packet.codec string in
  let delivery_f =
    {
      wr =
        (fun b d ->
          gid.wr b d.gid;
          int.wr b d.sn;
          proc.wr b d.origin;
          string.wr b d.msg);
      rd =
        (fun r ->
          let gid = gid.rd r in
          let sn = int.rd r in
          let origin = proc.rd r in
          { gid; sn; origin; msg = string.rd r });
    }
  in
  let records_f = list delivery_f and trace_f = option string in
  {
    wr =
      (fun b -> function
        | Hello { proc = p; trace } ->
            byte.wr b 0;
            proc.wr b p;
            trace_f.wr b trace
        | Pkt { src; dst; pkt } ->
            byte.wr b pkt_tag;
            proc.wr b src;
            proc.wr b dst;
            packet_f.wr b pkt
        | View_note v ->
            byte.wr b 2;
            view.wr b v
        | Client m ->
            byte.wr b 3;
            string.wr b m
        | Trace_line l ->
            byte.wr b 4;
            string.wr b l
        | Snapshot_req -> byte.wr b 5
        | Snapshot_part { gid = g; piece } ->
            byte.wr b 6;
            gid.wr b g;
            string.wr b piece
        | Shutdown -> byte.wr b 7
        | Delivered { proc = p; events; records } ->
            byte.wr b 8;
            proc.wr b p;
            int.wr b events;
            records_f.wr b records
        | Violation { Obs.Monitor.rule; at_seq; reason } ->
            byte.wr b 9;
            string.wr b rule;
            int.wr b at_seq;
            string.wr b reason
        | Snapshot_done { views } ->
            byte.wr b 10;
            int.wr b views);
    rd =
      (fun r ->
        match byte.rd r with
        | 0 ->
            let p = proc.rd r in
            Hello { proc = p; trace = trace_f.rd r }
        | 1 (* pkt_tag *) ->
            let src = proc.rd r in
            let dst = proc.rd r in
            Pkt { src; dst; pkt = packet_f.rd r }
        | 2 -> View_note (view.rd r)
        | 3 -> Client (string.rd r)
        | 4 -> Trace_line (string.rd r)
        | 5 -> Snapshot_req
        | 6 ->
            let g = gid.rd r in
            Snapshot_part { gid = g; piece = string.rd r }
        | 7 -> Shutdown
        | 8 ->
            let p = proc.rd r in
            let events = int.rd r in
            Delivered { proc = p; events; records = records_f.rd r }
        | 9 ->
            let rule = string.rd r in
            let at_seq = int.rd r in
            Violation { Obs.Monitor.rule; at_seq; reason = string.rd r }
        | 10 -> Snapshot_done { views = int.rd r }
        | _ -> raise (Malformed "live-wire frame tag"));
  }

let codec = Check.Codec.make ~id:"live-wire" ~version:3 frame_f

let encode f = Check.Codec.encode codec f
let decode b = Check.Codec.decode codec b
let decode_sub b ~pos ~len = Check.Codec.decode_sub codec b ~pos ~len

let max_frame = 16 * 1024 * 1024

(* A snapshot's views go in pieces of at most 1 MiB: a frame stays far
   below [max_frame] however much a view delivered. *)
let snapshot_piece = 1 lsl 20

let snapshot views send =
  List.iter
    (fun (gid, image) ->
      let n = String.length image in
      let rec pieces off =
        let k = min snapshot_piece (n - off) in
        send (Snapshot_part { gid; piece = String.sub image off k });
        if off + k < n then pieces (off + k)
      in
      pieces 0)
    views;
  send (Snapshot_done { views = List.length views })

(* The end of the varint at [p], or -1 if it runs past [stop]. *)
let rec varint_end b p stop =
  if p >= stop then -1
  else if Char.code (Bytes.unsafe_get b p) land 0x80 = 0 then p + 1
  else varint_end b (p + 1) stop

(* The {!Check.Codec.int} whose varint fills [p, e), read back to front
   from [i = e - 1]. *)
let rec zigzag_at b p i acc =
  if i >= p then
    zigzag_at b p (i - 1)
      ((acc lsl 7) lor (Char.code (Bytes.unsafe_get b i) land 0x7f))
  else (acc lsr 1) lxor -(acc land 1)

let pkt_dst ~src b ~pos ~len =
  let body = Check.Codec.check_frame codec b ~pos ~len in
  let stop = pos + len in
  if body < 0 || Char.code (Bytes.get b body) <> pkt_tag then -1
  else
    let src_end = varint_end b (body + 1) stop in
    if src_end < 0 || zigzag_at b (body + 1) (src_end - 1) 0 <> src then -1
    else
      let dst_end = varint_end b src_end stop in
      if dst_end < 0 then -1 else zigzag_at b src_end (dst_end - 1) 0

let to_wire f =
  let body = encode f in
  let n = Bytes.length body in
  let out = Bytes.create (4 + n) in
  Bytes.set_int32_be out 0 (Int32.of_int n);
  Bytes.blit body 0 out 4 n;
  out

module Reader = struct
  (* Compacting window buffer: [off, len) holds unconsumed bytes; the
     last image [next] handed over starts at [image]. *)
  type t = {
    mutable buf : bytes;
    mutable off : int;
    mutable len : int;  (* exclusive end of valid data *)
    mutable image : int;
    max_frame : int;
    mutable err : string option;
  }

  let create ?(max_frame = max_frame) () =
    {
      buf = Bytes.create 65536;
      off = 0;
      len = 0;
      image = 0;
      max_frame;
      err = None;
    }

  let pending t = t.len - t.off
  let buffer t = t.buf
  let image_pos t = t.image
  let error t = t.err

  let feed t src off n =
    let need = t.len - t.off + n in
    if t.len + n > Bytes.length t.buf then begin
      (* compact first; grow only if still short *)
      Bytes.blit t.buf t.off t.buf 0 (t.len - t.off);
      t.len <- t.len - t.off;
      t.off <- 0;
      if need > Bytes.length t.buf then begin
        let cap = ref (Bytes.length t.buf) in
        while !cap < need do
          cap := !cap * 2
        done;
        let nb = Bytes.create !cap in
        Bytes.blit t.buf 0 nb 0 t.len;
        t.buf <- nb
      end
    end;
    Bytes.blit src off t.buf t.len n;
    t.len <- t.len + n

  let next t =
    if t.err <> None || pending t < 4 then -1
    else
      let n = Int32.to_int (Bytes.get_int32_be t.buf t.off) in
      if n < 0 || n > t.max_frame then begin
        t.err <- Some (Printf.sprintf "frame length %d out of range" n);
        -1
      end
      else if pending t < 4 + n then -1
      else begin
        (* the image stays where it lies until the next [feed] *)
        t.image <- t.off + 4;
        t.off <- t.off + 4 + n;
        if t.off = t.len then begin
          t.off <- 0;
          t.len <- 0
        end;
        n
      end
end
