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

type ctx = {
  mutable h1 : int64;
  mutable h2 : int64;
  mutable len : int;
  pending : Bytes.t;  (* carry for word chunks split across [feed]s *)
  mutable pfill : int;
}

let create () =
  { h1 = basis1; h2 = basis2; len = 0; pending = Bytes.create 8; pfill = 0 }

let[@inline] mix1 h w =
  let z = Int64.mul (Int64.logxor h w) mult1 in
  Int64.logxor z (Int64.shift_right_logical z 29)

let[@inline] mix2 h w =
  let z = Int64.mul (Int64.add h w) mult2 in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] mix_word c w =
  c.h1 <- mix1 c.h1 w;
  c.h2 <- mix2 c.h2 w

let feed c s =
  let n = String.length s in
  c.len <- c.len + n;
  let i = ref 0 in
  if c.pfill > 0 then begin
    while c.pfill < 8 && !i < n do
      Bytes.unsafe_set c.pending c.pfill (String.unsafe_get s !i);
      c.pfill <- c.pfill + 1;
      incr i
    done;
    if c.pfill = 8 then begin
      mix_word c (Bytes.get_int64_le c.pending 0);
      c.pfill <- 0
    end
  end;
  while !i + 8 <= n do
    mix_word c (String.get_int64_le s !i);
    i := !i + 8
  done;
  while !i < n do
    Bytes.unsafe_set c.pending c.pfill (String.unsafe_get s !i);
    c.pfill <- c.pfill + 1;
    incr i
  done

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

let finish c =
  if c.pfill > 0 then begin
    for j = c.pfill to 7 do Bytes.unsafe_set c.pending j '\000' done;
    mix_word c (Bytes.get_int64_le c.pending 0);
    c.pfill <- 0
  end;
  finish_lanes c.h1 c.h2 c.len

let feed_bytes c b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Fingerprint.feed_bytes";
  c.len <- c.len + len;
  let i = ref pos in
  let stop = pos + len in
  if c.pfill > 0 then begin
    while c.pfill < 8 && !i < stop do
      Bytes.unsafe_set c.pending c.pfill (Bytes.unsafe_get b !i);
      c.pfill <- c.pfill + 1;
      incr i
    done;
    if c.pfill = 8 then begin
      mix_word c (Bytes.get_int64_le c.pending 0);
      c.pfill <- 0
    end
  end;
  (* lanes in locals for the bulk, as in [of_bytes]: unboxed *)
  let h1 = ref c.h1 and h2 = ref c.h2 in
  while !i + 8 <= stop do
    let w = Bytes.get_int64_le b !i in
    h1 := mix1 !h1 w;
    h2 := mix2 !h2 w;
    i := !i + 8
  done;
  c.h1 <- !h1;
  c.h2 <- !h2;
  while !i < stop do
    Bytes.unsafe_set c.pending c.pfill (Bytes.unsafe_get b !i);
    c.pfill <- c.pfill + 1;
    incr i
  done

(* The one-shot digest of a contiguous range: the same words, lanes and
   finalizer as [create]/[feed_bytes]/[finish], but with the lanes in
   local variables, which the compiler keeps unboxed — the streaming
   context's [mutable int64] fields box on every word. *)
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
