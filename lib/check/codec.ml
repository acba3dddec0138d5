(* Flat canonical state codecs.  Writers emit a canonical byte image —
   sets and maps in ascending order with cardinal prefixes — so the image
   is injective up to structural equality; framing adds id/version tags
   and a 128-bit fingerprint checksum so corrupt or truncated frames are
   rejected rather than mis-decoded.  See codec.mli and DESIGN.md §13. *)

open Prelude

(* A segment-memo site's cache inside one scratch: a few slots, each a
   key held by physical identity, the byte segment the wrapped codec
   wrote for it, and an LRU stamp. *)
type cache = {
  site : int;
  keys : Obj.t array;
  segs : Bytes.t array;
  lens : int array;
  stamps : int array;
  mutable tick : int;
}

(* [memo_on] is false on one-shot buffers, which bypass every memo site;
   [caches] holds a scratch's per-site caches, created on first use. *)
type wb = {
  mutable b : Bytes.t;
  mutable len : int;
  memo_on : bool;
  mutable caches : cache array;
}

type rb = { data : Bytes.t; mutable pos : int; limit : int }

exception Malformed of string

let malformed msg = raise (Malformed msg)

(* ------------------------------------------------------------------ *)
(* Write primitives                                                   *)

let wb_create ?(memo_on = false) n =
  { b = Bytes.create n; len = 0; memo_on; caches = [||] }

let grow w need =
  let cap = ref (max 64 (2 * Bytes.length w.b)) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let b = Bytes.create !cap in
  Bytes.blit w.b 0 b 0 w.len;
  w.b <- b

let[@inline] reserve w n =
  let need = w.len + n in
  if need > Bytes.length w.b then grow w need

let w_u8 w n =
  reserve w 1;
  Bytes.unsafe_set w.b w.len (Char.unsafe_chr (n land 0xff));
  w.len <- w.len + 1

(* Unsigned LEB128 of a non-negative int; one-byte values (most tags,
   identifiers and cardinals) skip the loop. *)
let w_uvarint_long w n =
  reserve w 10;
  let n = ref n in
  while !n land lnot 0x7f <> 0 do
    Bytes.unsafe_set w.b w.len (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    w.len <- w.len + 1;
    n := !n lsr 7
  done;
  Bytes.unsafe_set w.b w.len (Char.unsafe_chr !n);
  w.len <- w.len + 1

let[@inline] w_uvarint w n =
  if n land lnot 0x7f = 0 then w_u8 w n else w_uvarint_long w n

let w_string w s =
  let n = String.length s in
  w_uvarint w n;
  reserve w n;
  Bytes.blit_string s 0 w.b w.len n;
  w.len <- w.len + n

(* ------------------------------------------------------------------ *)
(* Read primitives                                                    *)

let check_avail r n = if r.limit - r.pos < n then malformed "truncated input"

let r_u8 r =
  check_avail r 1;
  let c = Char.code (Bytes.unsafe_get r.data r.pos) in
  r.pos <- r.pos + 1;
  c

(* Top level rather than local to [r_uvarint], so a read allocates no
   closure. *)
let rec r_uvarint_from r acc shift =
  if shift > 56 then malformed "varint overflow";
  let b = r_u8 r in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else r_uvarint_from r acc (shift + 7)

let r_uvarint r = r_uvarint_from r 0 0

(* A collection's elements each occupy at least one byte, so a cardinal
   larger than the remaining input is corrupt; rejecting it here keeps
   hand-driven readers from looping on absurd lengths. *)
let r_card r =
  let n = r_uvarint r in
  if n > r.limit - r.pos then malformed "cardinal exceeds input";
  n

let r_string r =
  let n = r_uvarint r in
  check_avail r n;
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* ------------------------------------------------------------------ *)
(* Field codecs                                                       *)

type 'a f = { wr : wb -> 'a -> unit; rd : rb -> 'a }

let byte =
  {
    wr =
      (fun w n ->
        if n < 0 || n > 0xff then invalid_arg "Codec.byte: out of range";
        w_u8 w n);
    rd = r_u8;
  }

(* Zigzag so small negative magnitudes stay short. *)
let int =
  {
    wr = (fun w n -> w_uvarint w ((n lsl 1) lxor (n asr 62)));
    rd =
      (fun r ->
        let u = r_uvarint r in
        (u lsr 1) lxor - (u land 1));
  }

let bool =
  {
    wr = (fun w b -> w_u8 w (Bool.to_int b));
    rd =
      (fun r ->
        match r_u8 r with
        | 0 -> false
        | 1 -> true
        | _ -> malformed "bool tag");
  }

let float =
  {
    wr =
      (fun w x ->
        reserve w 8;
        Bytes.set_int64_le w.b w.len (Int64.bits_of_float x);
        w.len <- w.len + 8);
    rd =
      (fun r ->
        check_avail r 8;
        let v = Int64.float_of_bits (Bytes.get_int64_le r.data r.pos) in
        r.pos <- r.pos + 8;
        v);
  }

let string = { wr = w_string; rd = r_string }
let unit = { wr = (fun _ () -> ()); rd = (fun _ -> ()) }

let pair a b =
  {
    wr =
      (fun w (x, y) ->
        a.wr w x;
        b.wr w y);
    rd =
      (fun r ->
        let x = a.rd r in
        let y = b.rd r in
        (x, y));
  }

let triple a b c =
  {
    wr =
      (fun w (x, y, z) ->
        a.wr w x;
        b.wr w y;
        c.wr w z);
    rd =
      (fun r ->
        let x = a.rd r in
        let y = b.rd r in
        let z = c.rd r in
        (x, y, z));
  }

(* Aggregate writers thread the buffer through a fold whose step function
   is built once per codec, so writing allocates no closure per call. *)
let list c =
  let rec write_all w = function
    | [] -> ()
    | x :: tl ->
        c.wr w x;
        write_all w tl
  in
  {
    wr =
      (fun w xs ->
        w_uvarint w (List.length xs);
        write_all w xs);
    rd =
      (fun r ->
        let rec read_n n =
          if n = 0 then []
          else
            let x = c.rd r in
            x :: read_n (n - 1)
        [@@tail_mod_cons]
        in
        read_n (r_card r));
  }

let option c =
  {
    wr =
      (fun w -> function
        | None -> w_u8 w 0
        | Some x ->
            w_u8 w 1;
            c.wr w x);
    rd =
      (fun r ->
        match r_u8 r with
        | 0 -> None
        | 1 -> Some (c.rd r)
        | _ -> malformed "option tag");
  }

let via ~to_ ~of_ c =
  { wr = (fun w x -> c.wr w (to_ x)); rd = (fun r -> of_ (c.rd r)) }

let image c x =
  let w = wb_create 64 in
  c.wr w x;
  Bytes.sub_string w.b 0 w.len

let list_image c iter =
  let n = ref 0 in
  iter (fun _ -> incr n);
  let w = wb_create 64 in
  w_uvarint w !n;
  iter (c.wr w);
  Bytes.sub_string w.b 0 w.len

let of_image c s =
  let r = { data = Bytes.unsafe_of_string s; pos = 0; limit = String.length s } in
  match c.rd r with
  | x -> if r.pos = r.limit then Ok x else Error "image has trailing bytes"
  | exception Malformed msg -> Error ("malformed image: " ^ msg)
  | exception (Invalid_argument msg | Failure msg) ->
      Error ("malformed image: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Segment memo                                                       *)

(* Keys are compared with [==] only and never read back, so holding them
   as [Obj.t] is type-safe; [no_key] is a private block no value can be
   physically equal to.  Holding the key also keeps it alive, so its
   address cannot be reused by a different value while it is cached. *)
let no_key = Obj.repr (ref ())
let next_site = Atomic.make 0

(* Four ways keep every engine of a registry stack state (universe 2)
   resident while its successors' fresh engines come and go; more ways
   measured no better on vs-stack-faulty. *)
let memo_ways = 4

let new_cache site =
  {
    site;
    keys = Array.make memo_ways no_key;
    segs = Array.init memo_ways (fun _ -> Bytes.create 64);
    lens = Array.make memo_ways 0;
    stamps = Array.make memo_ways 0;
    tick = 0;
  }

let rec find_cache caches site i =
  if i = Array.length caches then -1
  else if caches.(i).site = site then i
  else find_cache caches site (i + 1)

let cache_of w site =
  let i = find_cache w.caches site 0 in
  if i >= 0 then w.caches.(i)
  else begin
    let c = new_cache site in
    w.caches <- Array.append w.caches [| c |];
    c
  end

let rec find_way keys k i =
  if i = Array.length keys then -1
  else if keys.(i) == k then i
  else find_way keys k (i + 1)

let rec lru_way stamps best i =
  if i = Array.length stamps then best
  else lru_way stamps (if stamps.(i) < stamps.(best) then i else best) (i + 1)

let memo c =
  let site = Atomic.fetch_and_add next_site 1 in
  let wr w x =
    if not w.memo_on then c.wr w x
    else begin
      let m = cache_of w site in
      let k = Obj.repr x in
      m.tick <- m.tick + 1;
      let i = find_way m.keys k 0 in
      if i >= 0 then begin
        m.stamps.(i) <- m.tick;
        let n = m.lens.(i) in
        reserve w n;
        Bytes.blit m.segs.(i) 0 w.b w.len n;
        w.len <- w.len + n
      end
      else begin
        let start = w.len in
        c.wr w x;
        let n = w.len - start in
        let v = lru_way m.stamps 0 1 in
        if Bytes.length m.segs.(v) < n then
          m.segs.(v) <- Bytes.create (max n (2 * Bytes.length m.segs.(v)));
        Bytes.blit w.b start m.segs.(v) 0 n;
        m.keys.(v) <- k;
        m.lens.(v) <- n;
        m.stamps.(v) <- m.tick
      end
    end
  in
  { wr; rd = c.rd }

(* ------------------------------------------------------------------ *)
(* Prelude codecs                                                     *)

let proc = int
let gid = int
let gid_bot = option int

let label =
  {
    wr =
      (fun w (l : Label.t) ->
        int.wr w l.id;
        int.wr w l.seqno;
        int.wr w l.origin);
    rd =
      (fun r ->
        let id = int.rd r in
        let seqno = int.rd r in
        let origin = int.rd r in
        Label.make ~id ~seqno ~origin);
  }

let proc_set =
  {
    wr =
      (fun w s ->
        w_uvarint w (Proc.Set.cardinal s);
        ignore (Proc.Set.fold (fun x w -> int.wr w x; w) s w));
    rd =
      (fun r ->
        let n = r_card r in
        let acc = ref Proc.Set.empty in
        for _ = 1 to n do
          acc := Proc.Set.add (int.rd r) !acc
        done;
        !acc);
  }

let gid_set =
  {
    wr =
      (fun w s ->
        w_uvarint w (Gid.Set.cardinal s);
        ignore (Gid.Set.fold (fun x w -> int.wr w x; w) s w));
    rd =
      (fun r ->
        let n = r_card r in
        let acc = ref Gid.Set.empty in
        for _ = 1 to n do
          acc := Gid.Set.add (int.rd r) !acc
        done;
        !acc);
  }

let view =
  {
    wr =
      (fun w (v : View.t) ->
        int.wr w v.id;
        proc_set.wr w v.set);
    rd =
      (fun r ->
        let id = int.rd r in
        let set = proc_set.rd r in
        View.make ~id ~set);
  }

let view_set =
  {
    wr =
      (fun w s ->
        w_uvarint w (View.Set.cardinal s);
        ignore (View.Set.fold (fun x w -> view.wr w x; w) s w));
    rd =
      (fun r ->
        let n = r_card r in
        let acc = ref View.Set.empty in
        for _ = 1 to n do
          acc := View.Set.add (view.rd r) !acc
        done;
        !acc);
  }

let label_set =
  {
    wr =
      (fun w s ->
        w_uvarint w (Label.Set.cardinal s);
        ignore (Label.Set.fold (fun x w -> label.wr w x; w) s w));
    rd =
      (fun r ->
        let n = r_card r in
        let acc = ref Label.Set.empty in
        for _ = 1 to n do
          acc := Label.Set.add (label.rd r) !acc
        done;
        !acc);
  }

let proc_map (type a) (vc : a f) : a Proc.Map.t f =
  let entry k v w =
    int.wr w k;
    vc.wr w v;
    w
  in
  {
    wr =
      (fun w m ->
        w_uvarint w (Proc.Map.cardinal m);
        ignore (Proc.Map.fold entry m w));
    rd =
      (fun r ->
        let n = r_card r in
        let acc = ref Proc.Map.empty in
        for _ = 1 to n do
          let k = int.rd r in
          let v = vc.rd r in
          acc := Proc.Map.add k v !acc
        done;
        !acc);
  }

let gid_map (type a) (vc : a f) : a Gid.Map.t f =
  let entry k v w =
    int.wr w k;
    vc.wr w v;
    w
  in
  {
    wr =
      (fun w m ->
        w_uvarint w (Gid.Map.cardinal m);
        ignore (Gid.Map.fold entry m w));
    rd =
      (fun r ->
        let n = r_card r in
        let acc = ref Gid.Map.empty in
        for _ = 1 to n do
          let k = int.rd r in
          let v = vc.rd r in
          acc := Gid.Map.add k v !acc
        done;
        !acc);
  }

let label_map (type a) (vc : a f) : a Label.Map.t f =
  let entry k v w =
    label.wr w k;
    vc.wr w v;
    w
  in
  {
    wr =
      (fun w m ->
        w_uvarint w (Label.Map.cardinal m);
        ignore (Label.Map.fold entry m w));
    rd =
      (fun r ->
        let n = r_card r in
        let acc = ref Label.Map.empty in
        for _ = 1 to n do
          let k = label.rd r in
          let v = vc.rd r in
          acc := Label.Map.add k v !acc
        done;
        !acc);
  }

let pg_map (type a) (vc : a f) : a Pg_map.t f =
  let entry (p, g) v w =
    int.wr w p;
    int.wr w g;
    vc.wr w v;
    w
  in
  {
    wr =
      (fun w m ->
        w_uvarint w (Pg_map.cardinal m);
        ignore (Pg_map.fold entry m w));
    rd =
      (fun r ->
        let n = r_card r in
        let acc = ref Pg_map.empty in
        for _ = 1 to n do
          let p = int.rd r in
          let g = int.rd r in
          let v = vc.rd r in
          acc := Pg_map.add (p, g) v !acc
        done;
        !acc);
  }

let seqs (type a) (c : a f) : a Seqs.t f =
  let step w x =
    c.wr w x;
    w
  in
  {
    wr =
      (fun w s ->
        w_uvarint w (Seqs.length s);
        ignore (Seqs.fold_left step w s));
    rd =
      (fun r ->
        let n = r_card r in
        let acc = ref [] in
        for _ = 1 to n do
          acc := c.rd r :: !acc
        done;
        Seqs.of_list (List.rev !acc));
  }

let summary =
  let con_c = label_map string in
  let ord_c = seqs label in
  {
    wr =
      (fun w (s : Summary.t) ->
        con_c.wr w s.con;
        ord_c.wr w s.ord;
        int.wr w s.next;
        int.wr w s.high);
    rd =
      (fun r ->
        let con = con_c.rd r in
        let ord = ord_c.rd r in
        let next = int.rd r in
        let high = int.rd r in
        Summary.make ~con ~ord ~next ~high);
  }

(* ------------------------------------------------------------------ *)
(* Framing                                                            *)

type 's t = { c_id : string; c_version : int; c_f : 's f }

let make ~id ~version f = { c_id = id; c_version = version; c_f = f }
let id t = t.c_id
let version t = t.c_version
let field t = t.c_f
let with_version v t = { t with c_version = v }

let magic = 0xC5
let digest_bytes = 16

(* The frame is [magic · id · version · body-length · body · checksum];
   the checksum digests [id · version · body] (skipping the magic and the
   length, which have their own structural checks), as two ranges of the
   frame ({!Fingerprint.store2}).  A two-range digest is the digest of the
   ranges joined, so it equals the digest of the contiguous scratch
   preimage below. *)

let rec uvarint_size n =
  if n land lnot 0x7f = 0 then 1 else 1 + uvarint_size (n lsr 7)

(* [n]'s unsigned LEB128 at [pos] of [b]; the position after it. *)
let rec put_uvarint b pos n =
  if n land lnot 0x7f = 0 then begin
    Bytes.set b pos (Char.unsafe_chr n);
    pos + 1
  end
  else begin
    Bytes.set b pos (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    put_uvarint b (pos + 1) (n lsr 7)
  end

(* The body goes to a buffer kept per domain between calls (a field
   writer that encodes re-entrantly gets a fresh one), so a frame costs
   no allocation beyond the room its caller provides. *)
let body_buffer = Domain.DLS.new_key (fun () -> ref (Some (wb_create 256)))

let encode_to t s room =
  let slot = Domain.DLS.get body_buffer in
  let body = match !slot with Some b -> b | None -> wb_create 256 in
  slot := None;
  body.len <- 0;
  match
    t.c_f.wr body s;
    let id_len = String.length t.c_id in
    let size =
      1 + uvarint_size id_len + id_len + uvarint_size t.c_version
      + uvarint_size body.len + body.len + digest_bytes
    in
    let dst, pos = room size in
    Bytes.set dst pos (Char.unsafe_chr magic);
    let p = put_uvarint dst (pos + 1) id_len in
    Bytes.blit_string t.c_id 0 dst p id_len;
    let p = put_uvarint dst (p + id_len) t.c_version in
    let body_pos = put_uvarint dst p body.len in
    Bytes.blit body.b 0 dst body_pos body.len;
    Fingerprint.store2 dst ~pos1:(pos + 1) ~len1:(p - pos - 1) ~pos2:body_pos
      ~len2:body.len ~at:(body_pos + body.len)
  with
  | () -> slot := Some body
  | exception e ->
      slot := Some body;
      raise e

let encode t s =
  let frame = ref Bytes.empty in
  encode_to t s (fun n ->
      frame := Bytes.create n;
      (!frame, 0));
  !frame

(* [frame_check]'s failures, each the first check of its kind to fail. *)
let bad_magic = -1
let bad_header = -2
let bad_length = -3
let bad_checksum = -4

(* The position after [n]'s varint at [p], if [b] holds it there, as
   {!put_uvarint} writes it; -1 otherwise. *)
let rec uvarint_at b p stop n =
  if p >= stop then -1
  else
    let c = Char.code (Bytes.unsafe_get b p) in
    if n land lnot 0x7f = 0 then if c = n then p + 1 else -1
    else if c = 0x80 lor (n land 0x7f) then uvarint_at b (p + 1) stop (n lsr 7)
    else -1

(* The frame at [pos, pos + len) of [b], checked in place in {!decode}'s
   order — magic, id and version (compared with the bytes {!encode_to}
   writes for them), body length, checksum — allocating nothing: the
   body's offset, or one of the negative codes above. *)
let frame_check t b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Codec.check_frame: range";
  let stop = pos + len in
  let id_len = String.length t.c_id in
  if len = 0 || Char.code (Bytes.unsafe_get b pos) <> magic then bad_magic
  else begin
    let id_pos = uvarint_at b (pos + 1) stop id_len in
    let same = ref (id_pos >= 0 && id_pos + id_len <= stop) and i = ref 0 in
    while !same && !i < id_len do
      same := Bytes.unsafe_get b (id_pos + !i) = String.unsafe_get t.c_id !i;
      incr i
    done;
    let header_end =
      if !same then uvarint_at b (id_pos + id_len) stop t.c_version else -1
    in
    if header_end < 0 then bad_header
    else begin
      (* the body-length varint, read in locals *)
      let p = ref header_end and n = ref 0 and shift = ref 0 in
      let reading = ref true in
      while !reading do
        if !p >= stop || !shift > 56 then begin
          n := -1;
          reading := false
        end
        else begin
          let c = Char.code (Bytes.unsafe_get b !p) in
          incr p;
          n := !n lor ((c land 0x7f) lsl !shift);
          shift := !shift + 7;
          if c land 0x80 = 0 then reading := false
        end
      done;
      let body_pos = !p and body_len = !n in
      if body_len < 0 || stop - body_pos <> body_len + digest_bytes then
        bad_length
      else if
        not
          (Fingerprint.check2 b ~pos1:(pos + 1) ~len1:(header_end - pos - 1)
             ~pos2:body_pos ~len2:body_len ~at:(body_pos + body_len))
      then bad_checksum
      else body_pos
    end
  end

let check_frame t b ~pos ~len = max (-1) (frame_check t b ~pos ~len)

(* Why [frame_check] refused a frame.  Only a refused frame gets here,
   so only it pays for reading its id back. *)
let frame_error t b ~pos ~len code =
  if code = bad_magic then "bad magic byte"
  else if code = bad_length then "frame length mismatch"
  else if code = bad_checksum then "checksum mismatch"
  else
    let r = { data = b; pos = pos + 1; limit = pos + len } in
    match r_string r with
    | exception Malformed msg -> "malformed frame: " ^ msg
    | fid when not (String.equal fid t.c_id) ->
        Printf.sprintf "codec id mismatch: frame is %S, expected %S" fid t.c_id
    | _ -> (
        match r_uvarint r with
        | exception Malformed msg -> "malformed frame: " ^ msg
        | v when v <> t.c_version ->
            Printf.sprintf "wrong version: frame is v%d, this codec is v%d" v
              t.c_version
        | _ -> "malformed frame header")

let decode_sub t frame ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length frame - len then
    Error "frame range out of bounds"
  else
    let body_pos = frame_check t frame ~pos ~len in
    if body_pos < 0 then Error (frame_error t frame ~pos ~len body_pos)
    else
      let body_end = pos + len - digest_bytes in
      let r = { data = frame; pos = body_pos; limit = body_end } in
      match t.c_f.rd r with
      | s -> if r.pos <> body_end then Error "body length mismatch" else Ok s
      | exception Malformed msg -> Error ("malformed frame: " ^ msg)
      | exception (Invalid_argument msg | Failure msg) ->
          Error ("malformed body: " ^ msg)

let decode t frame = decode_sub t frame ~pos:0 ~len:(Bytes.length frame)

(* ------------------------------------------------------------------ *)
(* Scratch fingerprinting                                             *)

type scratch = wb

let scratch () = wb_create ~memo_on:true 1024

let encode_into t (w : scratch) s =
  w.len <- 0;
  w_string w t.c_id;
  w_uvarint w t.c_version;
  t.c_f.wr w s

let scratch_contents (w : scratch) = (w.b, w.len)

let fingerprint t w s =
  encode_into t w s;
  Fingerprint.of_bytes w.b ~pos:0 ~len:w.len

(* ------------------------------------------------------------------ *)
(* Hex                                                                *)

let to_hex b =
  let n = Bytes.length b in
  let out = Bytes.create (2 * n) in
  let digit k = "0123456789abcdef".[k] in
  for i = 0 to n - 1 do
    let c = Char.code (Bytes.unsafe_get b i) in
    Bytes.unsafe_set out (2 * i) (digit (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (digit (c land 0xf))
  done;
  Bytes.unsafe_to_string out

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "hex string has odd length"
  else begin
    let out = Bytes.create (n / 2) in
    let bad = ref None in
    let nibble i =
      match s.[i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | c ->
          if !bad = None then bad := Some (c, i);
          0
    in
    for i = 0 to (n / 2) - 1 do
      let hi = nibble (2 * i) in
      let lo = nibble ((2 * i) + 1) in
      Bytes.unsafe_set out i (Char.unsafe_chr ((hi lsl 4) lor lo))
    done;
    match !bad with
    | Some (c, i) ->
        Error (Printf.sprintf "bad hex digit %C at offset %d" c i)
    | None -> Ok out
  end
