type t = {
  fd : Unix.file_descr;
  reader : Wire.Reader.t;
  scratch : bytes;
  (* Outgoing bytes: [out_off, out_end) of [out] holds whole frames in
     send order, the first possibly part-written.  [flush] writes the
     whole window at once, not frame by frame. *)
  mutable out : bytes;
  mutable out_off : int;
  mutable out_end : int;
  mutable alive : bool;
  mutable err : string option;
  mutable closed : bool;
}

let create fd =
  Unix.set_nonblock fd;
  {
    fd;
    reader = Wire.Reader.create ();
    scratch = Bytes.create 65536;
    out = Bytes.create 65536;
    out_off = 0;
    out_end = 0;
    alive = true;
    err = None;
    closed = false;
  }

let fd t = t.fd
let alive t = t.alive
let error t = t.err
let pending_out t = t.out_end - t.out_off

let die t reason =
  if t.alive then begin
    t.alive <- false;
    t.err <- Some reason
  end

(* Make room for [n] more bytes at [out_end]: slide the window to the
   front first, grow (doubling) only if still short. *)
let reserve t n =
  if t.out_end + n > Bytes.length t.out then begin
    let pending = pending_out t in
    let cap = ref (Bytes.length t.out) in
    while !cap < pending + n do
      cap := !cap * 2
    done;
    let dst = if !cap = Bytes.length t.out then t.out else Bytes.create !cap in
    Bytes.blit t.out t.out_off dst 0 pending;
    t.out <- dst;
    t.out_off <- 0;
    t.out_end <- pending
  end

(* Room for an [n]-byte frame image at the end of the buffer, behind its
   length: the image's offset in [t.out].  A frame the receiving reader
   would refuse is refused here. *)
let room t n =
  if n > Wire.max_frame then
    invalid_arg
      (Printf.sprintf "Conn: a %d-byte frame exceeds Wire.max_frame" n);
  reserve t (4 + n);
  Bytes.set_int32_be t.out t.out_end (Int32.of_int n);
  let at = t.out_end + 4 in
  t.out_end <- at + n;
  at

(* The stream form of {!Wire.to_wire}, encoded straight into the
   buffer: the image is written once, where it will be sent from. *)
let send t frame =
  if t.alive then
    Check.Codec.encode_to Wire.codec frame (fun n ->
        let at = room t n in
        (t.out, at))

let send_image t b ~pos ~len =
  if t.alive then begin
    let at = room t len in
    Bytes.blit b pos t.out at len
  end

(* [Unix.single_write] moves at most 64 KiB per call, so a flush costs
   ⌈pending / 64 KiB⌉ writes, plus one that meets [EAGAIN] when the
   kernel pushes back. *)
let flush t =
  let rec go () =
    if t.alive && pending_out t > 0 then
      match Unix.single_write t.fd t.out t.out_off (pending_out t) with
      | 0 -> ()
      | n ->
          t.out_off <- t.out_off + n;
          go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error (e, _, _) -> die t (Unix.error_message e)
  in
  go ()

(* Images go to [f] as each read's bytes complete them, so none
   outlives its handling: a storm poll reads thousands of frames, and a
   list of them would be promoted to the major heap.  Stops as soon as
   the connection dies, [f] closing or failing it included. *)
let recv_images t f =
  let rec frames () =
    if t.alive then
      let n = Wire.Reader.next t.reader in
      if n >= 0 then begin
        f (Wire.Reader.buffer t.reader) (Wire.Reader.image_pos t.reader) n;
        frames ()
      end
      else
        match Wire.Reader.error t.reader with
        | Some e -> die t ("framing: " ^ e)
        | None -> ()
  in
  let rec read_all () =
    if t.alive then
      match Unix.read t.fd t.scratch 0 (Bytes.length t.scratch) with
      | 0 -> die t "eof"
      | n ->
          Wire.Reader.feed t.reader t.scratch 0 n;
          frames ();
          read_all ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error (e, _, _) -> die t (Unix.error_message e)
  in
  read_all ()

let fail = die

let recv t f =
  recv_images t (fun b pos len ->
      match Wire.decode_sub b ~pos ~len with
      | Ok frame -> f frame
      | Error e -> die t ("framing: " ^ e))

let close t =
  die t "closed";
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
