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
  | Snapshot of { proc : Proc.t; views : (Gid.t * string) list }
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
  | Snapshot { proc; views } ->
      Format.fprintf ppf "snapshot %a (%d views)" Proc.pp proc
        (List.length views)
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

let frame_f : frame Check.Codec.f =
  let open Check.Codec in
  let packet_f = Vs_impl.Packet.codec string in
  let views_f = list (pair gid string) in
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
            byte.wr b 1;
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
        | Snapshot { proc = p; views } ->
            byte.wr b 6;
            proc.wr b p;
            views_f.wr b views
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
            string.wr b reason);
    rd =
      (fun r ->
        match byte.rd r with
        | 0 ->
            let p = proc.rd r in
            Hello { proc = p; trace = trace_f.rd r }
        | 1 ->
            let src = proc.rd r in
            let dst = proc.rd r in
            Pkt { src; dst; pkt = packet_f.rd r }
        | 2 -> View_note (view.rd r)
        | 3 -> Client (string.rd r)
        | 4 -> Trace_line (string.rd r)
        | 5 -> Snapshot_req
        | 6 ->
            let p = proc.rd r in
            Snapshot { proc = p; views = views_f.rd r }
        | 7 -> Shutdown
        | 8 ->
            let p = proc.rd r in
            let events = int.rd r in
            Delivered { proc = p; events; records = records_f.rd r }
        | 9 ->
            let rule = string.rd r in
            let at_seq = int.rd r in
            Violation { Obs.Monitor.rule; at_seq; reason = string.rd r }
        | _ -> raise (Malformed "live-wire frame tag"));
  }

let codec = Check.Codec.make ~id:"live-wire" ~version:2 frame_f

let encode f = Check.Codec.encode codec f
let decode b = Check.Codec.decode codec b

let max_frame = 16 * 1024 * 1024

let to_wire f =
  let body = encode f in
  let n = Bytes.length body in
  let out = Bytes.create (4 + n) in
  Bytes.set_int32_be out 0 (Int32.of_int n);
  Bytes.blit body 0 out 4 n;
  out

module Reader = struct
  (* Compacting window buffer: [off, len) holds unconsumed bytes. *)
  type t = {
    mutable buf : bytes;
    mutable off : int;
    mutable len : int;  (* exclusive end of valid data *)
    max_frame : int;
    mutable err : string option;
  }

  let create ?(max_frame = max_frame) () =
    { buf = Bytes.create 65536; off = 0; len = 0; max_frame; err = None }

  let pending t = t.len - t.off

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
    match t.err with
    | Some e -> Error e
    | None ->
        if pending t < 4 then Ok None
        else
          let n = Int32.to_int (Bytes.get_int32_be t.buf t.off) in
          if n < 0 || n > t.max_frame then begin
            let e = Printf.sprintf "frame length %d out of range" n in
            t.err <- Some e;
            Error e
          end
          else if pending t < 4 + n then Ok None
          else begin
            let pos = t.off + 4 in
            t.off <- t.off + 4 + n;
            if t.off = t.len then begin
              t.off <- 0;
              t.len <- 0
            end;
            (* decoded values copy what they keep: the window may be
               overwritten by the next feed *)
            match Check.Codec.decode_sub codec t.buf ~pos ~len:n with
            | Ok f -> Ok (Some f)
            | Error e ->
                t.err <- Some e;
                Error e
          end
end
