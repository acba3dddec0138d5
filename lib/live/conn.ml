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

let send t frame =
  if t.alive then begin
    let b = Wire.to_wire frame in
    let n = Bytes.length b in
    reserve t n;
    Bytes.blit b 0 t.out t.out_end n;
    t.out_end <- t.out_end + n
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

(* Frames go to [f] as each read's bytes decode, so none outlives its
   handling: a storm poll reads thousands, and a list of them would be
   promoted to the major heap.  Stops as soon as the connection dies,
   [f] closing it included. *)
let recv t f =
  let rec frames () =
    if t.alive then
      match Wire.Reader.next t.reader with
      | Ok (Some frame) ->
          f frame;
          frames ()
      | Ok None -> ()
      | Error e -> die t ("framing: " ^ e)
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

let close t =
  die t "closed";
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
