type t = { hi : int64; lo : int64 }

let equal a b = Int64.equal a.hi b.hi && Int64.equal a.lo b.lo

let compare a b =
  match Int64.compare a.hi b.hi with 0 -> Int64.compare a.lo b.lo | c -> c

let hash t = Int64.to_int t.lo land max_int
let to_hex t = Printf.sprintf "%016Lx%016Lx" t.hi t.lo
let pp ppf t = Format.pp_print_string ppf (to_hex t)

(* Two independent multiply-mix lanes over 64-bit little-endian words.  The
   multipliers are the usual odd constants (golden ratio, xxhash prime);
   lane 1 xors the word in, lane 2 adds it, so the lanes do not collide
   together.  Partial trailing words are zero-padded — unambiguous because
   the finalizer mixes in the exact byte length.

   Each step ends with a shift-xor.  Without it the chain only carries
   differences toward the MSB (multiplication and addition mod 2^64 never
   propagate downward), which confines a top-byte difference to a 7-bit
   subspace on the xor lane and cancels it outright on the additive lane
   whenever the word distance is a multiple of 8 (mult2^8 = 1 mod 2^7) —
   an observed two-byte transposition collision on a real state encoding,
   not a theoretical one.  Folding the high bits back down restores full-
   width diffusion at every word. *)
let mult1 = 0x9E3779B97F4A7C15L
let mult2 = 0xC2B2AE3D27D4EB4FL
let basis1 = 0xcbf29ce484222325L
let basis2 = 0x84222325cbf29ce4L

let[@inline] mix1 h w =
  let z = Int64.mul (Int64.logxor h w) mult1 in
  Int64.logxor z (Int64.shift_right_logical z 29)

let[@inline] mix2 h w =
  let z = Int64.mul (Int64.add h w) mult2 in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* splitmix64 finalizer: full avalanche per lane. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] finish_lanes h1 h2 len =
  let len = Int64.of_int len in
  let h1 = Int64.logxor h1 len and h2 = Int64.logxor h2 len in
  let h1 = Int64.add h1 h2 in
  let h2 = Int64.add h2 h1 in
  let h1 = mix64 h1 in
  let h2 = mix64 h2 in
  let h1 = Int64.add h1 h2 in
  let h2 = Int64.add h2 h1 in
  { hi = h1; lo = h2 }

(* The digest of a contiguous range, with the lanes in local variables,
   which the compiler keeps unboxed (in mutable record fields an
   [int64] is boxed on every word). *)
let of_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Fingerprint.of_bytes";
  let h1 = ref basis1 and h2 = ref basis2 in
  let stop = pos + len in
  let i = ref pos in
  while !i + 8 <= stop do
    let w = Bytes.get_int64_le b !i in
    h1 := mix1 !h1 w;
    h2 := mix2 !h2 w;
    i := !i + 8
  done;
  if !i < stop then begin
    (* zero-padded trailing word, little-endian *)
    let w = ref 0L in
    for j = stop - 1 downto !i do
      w :=
        Int64.logor (Int64.shift_left !w 8)
          (Int64.of_int (Char.code (Bytes.unsafe_get b j)))
    done;
    h1 := mix1 !h1 !w;
    h2 := mix2 !h2 !w
  end;
  finish_lanes !h1 !h2 len

let of_string s =
  of_bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* Byte [c] at position [k] of the little-endian word [w]. *)
let[@inline] put_byte w k c =
  Int64.logor w (Int64.shift_left (Int64.of_int (Char.code c)) (8 * k))

(* The digest of two ranges of [b], as [of_bytes] of their concatenation,
   either stored big-endian (hi lane first) at [at] or compared with the
   16 bytes there.  One function, so the lanes stay in unboxed locals
   from the first word to the store or the comparison: nothing is
   allocated.  A word may straddle the two ranges; [carry] holds the
   first range's trailing bytes, little-endian, until the second
   completes it. *)
let digest2 ~store b ~pos1 ~len1 ~pos2 ~len2 ~at =
  if
    pos1 < 0 || len1 < 0 || pos1 > Bytes.length b - len1 || pos2 < 0
    || len2 < 0 || pos2 > Bytes.length b - len2 || at < 0
    || at > Bytes.length b - 16
  then invalid_arg "Fingerprint.digest2";
  let h1 = ref basis1 and h2 = ref basis2 in
  let stop1 = pos1 + len1 in
  let i = ref pos1 in
  while !i + 8 <= stop1 do
    let w = Bytes.get_int64_le b !i in
    h1 := mix1 !h1 w;
    h2 := mix2 !h2 w;
    i := !i + 8
  done;
  let carry = ref 0L and fill = ref 0 in
  while !i < stop1 do
    carry := put_byte !carry !fill (Bytes.unsafe_get b !i);
    incr fill;
    incr i
  done;
  let stop2 = pos2 + len2 in
  i := pos2;
  if !fill > 0 then begin
    while !fill < 8 && !i < stop2 do
      carry := put_byte !carry !fill (Bytes.unsafe_get b !i);
      incr fill;
      incr i
    done;
    if !fill = 8 then begin
      h1 := mix1 !h1 !carry;
      h2 := mix2 !h2 !carry;
      carry := 0L;
      fill := 0
    end
  end;
  while !i + 8 <= stop2 do
    let w = Bytes.get_int64_le b !i in
    h1 := mix1 !h1 w;
    h2 := mix2 !h2 w;
    i := !i + 8
  done;
  while !i < stop2 do
    carry := put_byte !carry !fill (Bytes.unsafe_get b !i);
    incr fill;
    incr i
  done;
  if !fill > 0 then begin
    h1 := mix1 !h1 !carry;
    h2 := mix2 !h2 !carry
  end;
  (* [finish_lanes] without its record *)
  let len = Int64.of_int (len1 + len2) in
  let x1 = Int64.logxor !h1 len and x2 = Int64.logxor !h2 len in
  let x1 = Int64.add x1 x2 in
  let x2 = Int64.add x2 x1 in
  let x1 = mix64 x1 in
  let x2 = mix64 x2 in
  let hi = Int64.add x1 x2 in
  let lo = Int64.add x2 hi in
  if store then begin
    Bytes.set_int64_be b at hi;
    Bytes.set_int64_be b (at + 8) lo;
    true
  end
  else
    Int64.equal hi (Bytes.get_int64_be b at)
    && Int64.equal lo (Bytes.get_int64_be b (at + 8))

let store2 b ~pos1 ~len1 ~pos2 ~len2 ~at =
  ignore (digest2 ~store:true b ~pos1 ~len1 ~pos2 ~len2 ~at)

let check2 b ~pos1 ~len1 ~pos2 ~len2 ~at =
  digest2 ~store:false b ~pos1 ~len1 ~pos2 ~len2 ~at

(* Range partition of the high lane's top 16 bits.  The owner of a
   fingerprint must be decorrelated from every other consumer of its
   bits: [Table]'s hash and [Set]'s linear probe both fold [lo],
   untouched here, so per-shard structures stay uniformly loaded. *)
let shard t ~shards =
  if shards <= 1 then 0
  else
    let top = Int64.to_int (Int64.shift_right_logical t.hi 48) in
    top * shards / 65536

let seed t extra =
  let lane v =
    [|
      Int64.to_int (Int64.logand v 0xFFFFFFFFL);
      Int64.to_int (Int64.shift_right_logical v 32);
    |]
  in
  Array.concat [ extra; lane t.lo; lane t.hi ]

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* Hash-compacted fingerprint set: two parallel Int64 bigarrays hold the
   lanes (16 flat bytes per entry, no boxing, no bucket lists), the
   all-zero lane pair marks an empty slot — the all-zero digest itself,
   vanishingly unlikely but legal, is tracked out of band.  Linear probe
   on the low lane (already avalanched by the finalizer), doubling at 50%
   load. *)
module Set = struct
  type elt = t

  type lanes = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

  type nonrec t = {
    mutable his : lanes;
    mutable los : lanes;
    mutable mask : int;
    mutable count : int;  (* occupied slots, excluding the zero digest *)
    mutable zero : bool;
  }

  let alloc cap =
    let a = Bigarray.(Array1.create int64 c_layout cap) in
    Bigarray.Array1.fill a 0L;
    a

  let create ?(capacity = 1024) () =
    let cap = ref 16 in
    while !cap < capacity do
      cap := !cap * 2
    done;
    let cap = !cap in
    { his = alloc cap; los = alloc cap; mask = cap - 1; count = 0; zero = false }

  (* Slot where (fhi, flo) lives or belongs: [lnot i] when present at [i],
     the empty slot index when absent.  Requires (fhi, flo) <> (0, 0) and a
     table below full (guaranteed by the 50% growth threshold). *)
  let probe s fhi flo =
    let mask = s.mask in
    let i = ref (Int64.to_int flo land mask) in
    let r = ref 0 in
    let searching = ref true in
    while !searching do
      let h = Bigarray.Array1.unsafe_get s.his !i
      and l = Bigarray.Array1.unsafe_get s.los !i in
      if Int64.equal h 0L && Int64.equal l 0L then begin
        r := !i;
        searching := false
      end
      else if Int64.equal h fhi && Int64.equal l flo then begin
        r := lnot !i;
        searching := false
      end
      else i := (!i + 1) land mask
    done;
    !r

  let grow s =
    let old_hi = s.his and old_lo = s.los in
    let old_cap = s.mask + 1 in
    let cap = old_cap * 2 in
    s.his <- alloc cap;
    s.los <- alloc cap;
    s.mask <- cap - 1;
    for j = 0 to old_cap - 1 do
      let h = Bigarray.Array1.unsafe_get old_hi j
      and l = Bigarray.Array1.unsafe_get old_lo j in
      if not (Int64.equal h 0L && Int64.equal l 0L) then begin
        let k = probe s h l in
        Bigarray.Array1.unsafe_set s.his k h;
        Bigarray.Array1.unsafe_set s.los k l
      end
    done

  let mem s fp =
    if Int64.equal fp.hi 0L && Int64.equal fp.lo 0L then s.zero
    else probe s fp.hi fp.lo < 0

  let add s fp =
    if Int64.equal fp.hi 0L && Int64.equal fp.lo 0L then
      if s.zero then false
      else begin
        s.zero <- true;
        true
      end
    else begin
      let k = probe s fp.hi fp.lo in
      if k < 0 then false
      else begin
        Bigarray.Array1.unsafe_set s.his k fp.hi;
        Bigarray.Array1.unsafe_set s.los k fp.lo;
        s.count <- s.count + 1;
        if 2 * s.count >= s.mask + 1 then grow s;
        true
      end
    end

  let cardinal s = s.count + Bool.to_int s.zero
end
