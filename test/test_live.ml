(* lib/live: the wire protocol (framed codec round-trips, every
   truncation and mutation rejected, incremental Reader reassembly under
   pathological chunking), the faultable proxy's routing semantics, the
   MPSC ring under multi-domain torture with poison-pill shutdown, Conn
   over a real socketpair (short writes, EOF detection), and a small
   in-process (domain-mode) live run that must drain with clean
   monitors and byte-identical snapshots. *)

open Prelude
module W = Live.Wire
module P = Vs_impl.Packet

let frame = Alcotest.testable W.pp (fun a b ->
    String.equal
      (Format.asprintf "%a" W.pp a)
      (Format.asprintf "%a" W.pp b))

let sample_view = View.make ~id:(Gid.succ Gid.g0) ~set:(Proc.Set.universe 3)

let sample_frames : W.frame list =
  [
    W.Hello { proc = 2; trace = Some "trace-2.jsonl" };
    W.Hello { proc = 0; trace = None };
    W.Pkt { src = 0; dst = 1; pkt = P.Fwd { gid = Gid.g0; fsn = 1; payload = "hello" } };
    W.Pkt
      {
        src = 1;
        dst = 2;
        pkt = P.Seq { gid = Gid.succ Gid.g0; sn = 7; origin = 0; payload = "" };
      };
    W.Pkt { src = 2; dst = 0; pkt = P.Ack { gid = Gid.g0; upto = 41 } };
    W.Pkt { src = 0; dst = 2; pkt = P.Stable { gid = Gid.g0; upto = 12 } };
    W.View_note sample_view;
    W.Client "payload with \"quotes\" and \x00 bytes \xff";
    W.Trace_line "{\"seq\":1,\"kind\":\"point\"}";
    W.Snapshot_req;
    W.Snapshot_part { gid = Gid.g0; piece = W.prefix_image [ ("a", 0); ("b", 2) ] };
    W.Snapshot_part { gid = Gid.succ Gid.g0; piece = "" };
    W.Snapshot_done { views = 2 };
    W.Shutdown;
    W.Delivered
      {
        proc = 1;
        events = 5;
        records =
          [
            { W.gid = Gid.succ Gid.g0; sn = 1; origin = 0; msg = "m0" };
            { W.gid = Gid.succ Gid.g0; sn = 2; origin = 2; msg = "" };
          ];
      };
    W.Delivered { proc = 0; events = 1; records = [] };
    W.Violation
      {
        Obs.Monitor.rule = "unique-sequencing";
        at_seq = 42;
        reason = "forward (src p0, view g1, fsn 3) sequenced twice at p1";
      };
  ]

(* ------------------------------------------------------------------ *)
(* Framed codec                                                        *)
(* ------------------------------------------------------------------ *)

let test_wire_roundtrip () =
  List.iter
    (fun f ->
      match W.decode (W.encode f) with
      | Ok f' -> Alcotest.check frame "round-trips" f f'
      | Error e ->
          Alcotest.failf "%s: decode failed: %s"
            (Format.asprintf "%a" W.pp f)
            e)
    sample_frames

(* A prefix image written from an iterator is the image of the list,
   and decodes back to it. *)
let test_prefix_image_iter () =
  let rng = Random.State.make [| 7 |] in
  for n = 0 to 300 do
    let prefix =
      List.init (n * n mod 1000) (fun i ->
          (String.make (Random.State.int rng 200) (Char.chr (i mod 256)), i mod 5))
    in
    let image = W.prefix_image_iter (fun f -> List.iter f prefix) in
    Alcotest.(check string) "iterated image = list image" (W.prefix_image prefix)
      image;
    if W.prefix_of_image image <> Ok prefix then
      Alcotest.fail "image does not decode back"
  done

(* every strict prefix of a frame image is rejected — short reads can
   never mis-decode *)
let test_wire_truncation () =
  List.iter
    (fun f ->
      let b = W.encode f in
      for len = 0 to Bytes.length b - 1 do
        match W.decode (Bytes.sub b 0 len) with
        | Error _ -> ()
        | Ok f' ->
            Alcotest.failf "truncation to %d bytes mis-decoded as %a" len W.pp
              f'
      done)
    sample_frames

(* every single-byte mutation is rejected (128-bit checksum) *)
let test_wire_mutation () =
  List.iter
    (fun f ->
      let b = W.encode f in
      for i = 0 to Bytes.length b - 1 do
        let m = Bytes.copy b in
        Bytes.set m i (Char.chr (Char.code (Bytes.get m i) lxor 0x5a));
        match W.decode m with
        | Error _ -> ()
        | Ok f' ->
            if Format.asprintf "%a" W.pp f' <> Format.asprintf "%a" W.pp f
            then
              Alcotest.failf "mutating byte %d mis-decoded as %a" i W.pp f'
            else Alcotest.failf "mutating byte %d went undetected" i
      done)
    sample_frames

(* The in-place frame check accepts exactly what decode accepts — every
   intact frame, no truncation and no single-byte mutation — and
   allocates nothing; [pkt_dst] reads a Pkt's dst only when its src is
   the one asked for. *)
let test_wire_check_in_place () =
  List.iter
    (fun f ->
      let b = W.encode f in
      let n = Bytes.length b in
      let ok b len = Check.Codec.check_frame W.codec b ~pos:0 ~len >= 0 in
      if not (ok b n) then Alcotest.failf "%a: intact frame refused" W.pp f;
      for len = 0 to n - 1 do
        if ok b len then Alcotest.failf "%a: truncation to %d accepted" W.pp f len
      done;
      for i = 0 to n - 1 do
        let m = Bytes.copy b in
        Bytes.set m i (Char.chr (Char.code (Bytes.get m i) lxor 0x5a));
        if ok m n then Alcotest.failf "%a: mutating byte %d accepted" W.pp f i;
        if W.pkt_dst ~src:0 m ~pos:0 ~len:n >= 0
           || W.pkt_dst ~src:1 m ~pos:0 ~len:n >= 0
           || W.pkt_dst ~src:2 m ~pos:0 ~len:n >= 0
        then Alcotest.failf "%a: mutating byte %d routed" W.pp f i
      done;
      let routed =
        List.map (fun src -> W.pkt_dst ~src b ~pos:0 ~len:n) [ 0; 1; 2 ]
      in
      let want =
        match f with
        | W.Pkt { src; dst; _ } ->
            List.map (fun s -> if s = src then dst else -1) [ 0; 1; 2 ]
        | _ -> [ -1; -1; -1 ]
      in
      Alcotest.(check (list int))
        (Format.asprintf "%a: pkt_dst" W.pp f)
        want routed)
    sample_frames;
  let b = W.encode (List.nth sample_frames 2) in
  let n = Bytes.length b in
  ignore (W.pkt_dst ~src:0 b ~pos:0 ~len:n);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (Sys.opaque_identity (W.pkt_dst ~src:0 b ~pos:0 ~len:n))
  done;
  Alcotest.(check (float 0.)) "words allocated by 1,000 checks" 0.
    (Gc.minor_words () -. w0)

(* ------------------------------------------------------------------ *)
(* Incremental Reader                                                  *)
(* ------------------------------------------------------------------ *)

let stream_of frames =
  let b = Buffer.create 256 in
  List.iter (fun f -> Buffer.add_bytes b (W.to_wire f)) frames;
  Buffer.to_bytes b

(* The reader's next frame image, decoded: [Ok None] when it needs more
   bytes, [Error _] for a stream error or an image that does not
   decode. *)
let next_frame r =
  match W.Reader.next r with
  | -1 -> (
      match W.Reader.error r with None -> Ok None | Some e -> Error e)
  | n ->
      Result.map Option.some
        (W.decode_sub (W.Reader.buffer r) ~pos:(W.Reader.image_pos r) ~len:n)

let drain_reader r =
  let rec go acc =
    match next_frame r with
    | Ok (Some f) -> go (f :: acc)
    | Ok None -> List.rev acc
    | Error e -> Alcotest.failf "reader error: %s" e
  in
  go []

let test_reader_byte_at_a_time () =
  let stream = stream_of sample_frames in
  let r = W.Reader.create () in
  let got = ref [] in
  Bytes.iteri
    (fun i _ ->
      W.Reader.feed r stream i 1;
      got := !got @ drain_reader r)
    stream;
  Alcotest.(check (list frame)) "all frames reassembled" sample_frames !got;
  Alcotest.(check int) "nothing left over" 0 (W.Reader.pending r)

let test_reader_random_chunks () =
  let rng = Random.State.make [| 0xC0FFEE |] in
  for _ = 1 to 50 do
    let stream = stream_of (sample_frames @ List.rev sample_frames) in
    let r = W.Reader.create () in
    let got = ref [] in
    let off = ref 0 in
    let n = Bytes.length stream in
    while !off < n do
      let k = min (n - !off) (1 + Random.State.int rng 23) in
      W.Reader.feed r stream !off k;
      off := !off + k;
      got := !got @ drain_reader r
    done;
    Alcotest.(check (list frame))
      "all frames reassembled"
      (sample_frames @ List.rev sample_frames)
      !got
  done

(* a truncated stream never yields a frame; a corrupted image is
   rejected, and kills the connection that reads it; an out-of-range
   length is a sticky reader error *)
let test_reader_truncation_and_corruption () =
  let image = W.to_wire (List.nth sample_frames 1) in
  for len = 0 to Bytes.length image - 1 do
    let r = W.Reader.create () in
    W.Reader.feed r image 0 len;
    match next_frame r with
    | Ok None -> ()
    | Ok (Some f) ->
        Alcotest.failf "prefix of %d bytes yielded %a" len W.pp f
    | Error e -> Alcotest.failf "prefix of %d bytes errored: %s" len e
  done;
  (* flip one body byte past the length prefix *)
  let m = Bytes.copy image in
  Bytes.set m 10 (Char.chr (Char.code (Bytes.get m 10) lxor 0xff));
  let r = W.Reader.create () in
  W.Reader.feed r m 0 (Bytes.length m);
  (match next_frame r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt frame image not rejected");
  (* a connection reading the corrupt image dies, and hands over nothing
     after it *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let cb = Live.Conn.create b in
  let raw = Bytes.concat Bytes.empty [ m; image ] in
  ignore (Unix.write a raw 0 (Bytes.length raw));
  let got = ref 0 in
  Live.Conn.recv cb (fun _ -> incr got);
  Alcotest.(check int) "no frame handed over" 0 !got;
  Alcotest.(check bool) "the reading connection died" false
    (Live.Conn.alive cb);
  (match Live.Conn.error cb with
  | Some e when String.starts_with ~prefix:"framing: " e -> ()
  | e ->
      Alcotest.failf "died of %s, not a framing error"
        (Option.value ~default:"nothing" e));
  Unix.close a;
  Live.Conn.close cb;
  (* an out-of-range length is rejected without allocating *)
  let big = Bytes.create 4 in
  Bytes.set_int32_be big 0 (Int32.of_int (W.max_frame + 1));
  let r = W.Reader.create () in
  W.Reader.feed r big 0 4;
  (match next_frame r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversize frame length accepted");
  (* and the error is sticky *)
  W.Reader.feed r image 0 (Bytes.length image);
  match next_frame r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reader recovered from a corrupt stream"

(* ------------------------------------------------------------------ *)
(* Proxy routing semantics                                             *)
(* ------------------------------------------------------------------ *)

let pkt_frame payload : W.frame =
  W.Pkt { src = 0; dst = 1; pkt = P.Fwd { gid = Gid.g0; fsn = 1; payload } }

let phase ?(drop = 0.) ?(duplicate = 0.) ?(reorder = 0.) ?partition () =
  {
    Sim.Faults.label = "test";
    intensity = { drop; duplicate; reorder };
    partition =
      (match partition with
      | Some p -> p
      | None -> Sim.Partition.whole (Proc.Set.universe 3));
    steps = 1;
  }

(* What a verdict delivers now, as images. *)
let delivered image = function
  | Live.Proxy.Drop -> []
  | Once -> [ image ]
  | Twice -> [ image; image ]
  | Once_then held -> [ image; held ]

let route p ~src ~dst f =
  let image = W.encode f in
  delivered image
    (Live.Proxy.route p ~src ~dst image ~pos:0 ~len:(Bytes.length image))

let images = Alcotest.(list (testable (Fmt.of_to_string Bytes.to_string) Bytes.equal))

let test_proxy_faults () =
  let p = Live.Proxy.create ~seed:42 () in
  let f = pkt_frame "x" in
  let img = W.encode f in
  (* calm: exactly one copy *)
  Alcotest.check images "calm" [ img ] (route p ~src:0 ~dst:1 f);
  (* certain drop *)
  Live.Proxy.set_phase p (phase ~drop:1. ());
  Alcotest.check images "dropped" [] (route p ~src:0 ~dst:1 f);
  (* certain duplicate *)
  Live.Proxy.set_phase p (phase ~duplicate:1. ());
  Alcotest.check images "duplicated" [ img; img ] (route p ~src:0 ~dst:1 f);
  (* certain reorder: pairwise swap per channel *)
  Live.Proxy.set_phase p (phase ~reorder:1. ());
  let f1 = pkt_frame "first" and f2 = pkt_frame "second" in
  Alcotest.check images "held" [] (route p ~src:0 ~dst:1 f1);
  Alcotest.check images "swapped" [ W.encode f2; W.encode f1 ]
    (route p ~src:0 ~dst:1 f2);
  (* the held copy is the proxy's own: a slice overwritten after the
     reorder draw (as a reader's window is) is released as it was *)
  let slice = Bytes.cat (Bytes.make 5 'z') (W.encode f1) in
  (match
     Live.Proxy.route p ~src:0 ~dst:1 slice ~pos:5
       ~len:(Bytes.length slice - 5)
   with
  | Drop -> Bytes.fill slice 0 (Bytes.length slice) '\000'
  | _ -> Alcotest.fail "reorder draw did not hold the packet");
  (* flush releases a held packet *)
  (match Live.Proxy.flush p with
  | [ (0, 1, g) ] ->
      Alcotest.check images "flushed the held packet" [ W.encode f1 ] [ g ]
  | l -> Alcotest.failf "flush returned %d packets" (List.length l));
  (* control frames never pass through the proxy: the runtime case
     "control plane reliable under drops" sends them under a certain
     drop *)
  (* partition cut *)
  let cut =
    Sim.Partition.of_components
      [ Proc.Set.of_list [ 0; 1 ]; Proc.Set.of_list [ 2 ] ]
  in
  Live.Proxy.clear p;
  Live.Proxy.set_phase p (phase ~partition:cut ());
  Alcotest.check images "cross-component cut" [] (route p ~src:0 ~dst:2 f);
  Alcotest.check images "same component flows" [ img ]
    (route p ~src:0 ~dst:1 f)

(* The proxy as it routed decoded frames before it routed images, kept
   as an oracle: the same RNG, draws, stash and partition rule. *)
module Frame_route = struct
  type t = {
    rng : Random.State.t;
    mutable intensity : Sim.Faults.intensity;
    mutable partition : Sim.Partition.t option;
    stash : (Proc.t * Proc.t, W.frame) Hashtbl.t;
  }

  let create ~seed () =
    {
      rng = Random.State.make [| seed; 0x11fe |];
      intensity = Sim.Faults.calm;
      partition = None;
      stash = Hashtbl.create 16;
    }

  let set_phase t (ph : Sim.Faults.phase) =
    t.intensity <- ph.Sim.Faults.intensity;
    t.partition <- Some ph.Sim.Faults.partition

  let clear t =
    t.intensity <- Sim.Faults.calm;
    t.partition <- None

  let connected t src dst =
    match t.partition with
    | None -> true
    | Some part -> (
        match Sim.Partition.component_of part src with
        | None -> false
        | Some comp -> Proc.Set.mem dst comp)

  let route t ~src ~dst frame =
    if not (connected t src dst) then []
    else
      let held =
        match Hashtbl.find_opt t.stash (src, dst) with
        | Some h ->
            Hashtbl.remove t.stash (src, dst);
            [ h ]
        | None -> []
      in
      if held <> [] then frame :: held
      else
        let i = t.intensity in
        let u = Random.State.float t.rng 1.0 in
        if u < i.Sim.Faults.drop then []
        else if u < i.Sim.Faults.drop +. i.Sim.Faults.duplicate then
          [ frame; frame ]
        else if
          u
          < i.Sim.Faults.drop +. i.Sim.Faults.duplicate +. i.Sim.Faults.reorder
        then begin
          Hashtbl.replace t.stash (src, dst) frame;
          []
        end
        else [ frame ]

  let flush t =
    let held =
      Hashtbl.fold (fun (src, dst) f acc -> (src, dst, f) :: acc) t.stash []
    in
    Hashtbl.reset t.stash;
    held
end

(* For the same seed and packet sequence, routing images makes every
   drop, duplicate, reorder and partition decision the frame route
   made: random phases (intensities, partitions, calm spells), packets
   on random channels of three processes, flushes in between.  Each
   step's deliveries must be the same images in the same order, and
   each flush must release the same packets (the oracle's stash is a
   hash table, so flushes compare as sorted lists). *)
let test_proxy_bytes_match_frames () =
  let universe = Proc.Set.universe 3 in
  let partitions =
    [
      Sim.Partition.whole universe;
      Sim.Partition.of_components
        [ Proc.Set.of_list [ 0; 1 ]; Proc.Set.of_list [ 2 ] ];
      Sim.Partition.of_components
        [ Proc.Set.of_list [ 0 ]; Proc.Set.of_list [ 1; 2 ] ];
    ]
  in
  let decisions = ref 0 in
  for seed = 1 to 20 do
    let rng = Random.State.make [| seed; 77 |] in
    let bytes_p = Live.Proxy.create ~seed () in
    let frames_p = Frame_route.create ~seed () in
    for step = 1 to 2_000 do
      match Random.State.int rng 100 with
      | 0 ->
          let r () = Random.State.float rng 0.4 in
          let ph =
            phase ~drop:(r ()) ~duplicate:(r ()) ~reorder:(r ())
              ~partition:
                (List.nth partitions (Random.State.int rng (List.length partitions)))
              ()
          in
          Live.Proxy.set_phase bytes_p ph;
          Frame_route.set_phase frames_p ph
      | 1 ->
          Live.Proxy.clear bytes_p;
          Frame_route.clear frames_p
      | 2 ->
          let sorted l = List.sort compare l in
          let got =
            sorted
              (List.map
                 (fun (s, d, b) -> (s, d, Bytes.to_string b))
                 (Live.Proxy.flush bytes_p))
          and want =
            sorted
              (List.map
                 (fun (s, d, f) -> (s, d, Bytes.to_string (W.encode f)))
                 (Frame_route.flush frames_p))
          in
          if got <> want then
            Alcotest.failf "seed %d step %d: flushes differ (%d vs %d packets)"
              seed step (List.length got) (List.length want)
      | _ ->
          let src = Random.State.int rng 3 in
          let dst = (src + 1 + Random.State.int rng 2) mod 3 in
          let f =
            W.Pkt
              {
                src;
                dst;
                pkt =
                  P.Fwd { gid = Gid.g0; fsn = step; payload = string_of_int seed };
              }
          in
          incr decisions;
          let got = route bytes_p ~src ~dst f
          and want = List.map W.encode (Frame_route.route frames_p ~src ~dst f) in
          if not (List.equal Bytes.equal got want) then
            Alcotest.failf "seed %d step %d (%d -> %d): %d images, the frame route %d"
              seed step src dst (List.length got) (List.length want)
    done
  done;
  Alcotest.(check bool) "packets routed" true (!decisions > 30_000)

(* ------------------------------------------------------------------ *)
(* Ring torture                                                        *)
(* ------------------------------------------------------------------ *)

(* Randomized producer domains hammer one small ring; each finishes with
   a poison pill.  The consumer must see every value exactly once, in
   per-producer FIFO order, and exactly one pill per producer. *)
let test_ring_torture () =
  let producers = 4 and per_producer = 5_000 in
  let ring = Check.Ring.create ~capacity:64 in
  let encode p i = (p * per_producer) + i in
  let poison p = -(p + 1) in
  let spawn p =
    Domain.spawn (fun () ->
        let rng = Random.State.make [| 0xBEEF; p |] in
        for i = 0 to per_producer - 1 do
          (* randomized pacing widens the interleavings exercised *)
          if Random.State.int rng 16 = 0 then Domain.cpu_relax ();
          while not (Check.Ring.try_push ring (encode p i)) do
            Domain.cpu_relax ()
          done
        done;
        while not (Check.Ring.try_push ring (poison p)) do
          Domain.cpu_relax ()
        done)
  in
  let doms = List.init producers spawn in
  let next = Array.make producers 0 in
  let pills = ref 0 in
  let popped = ref 0 in
  while !pills < producers do
    match Check.Ring.try_pop ring with
    | None -> Domain.cpu_relax ()
    | Some v ->
        incr popped;
        if v < 0 then incr pills
        else begin
          let p = v / per_producer and i = v mod per_producer in
          if next.(p) <> i then
            Alcotest.failf "producer %d: got item %d, expected %d" p i
              next.(p);
          next.(p) <- i + 1
        end
  done;
  List.iter Domain.join doms;
  Alcotest.(check (list int))
    "every producer's items all arrived"
    (List.init producers (fun _ -> per_producer))
    (Array.to_list next);
  Alcotest.(check int) "exactly one pill each + all items"
    ((producers * per_producer) + producers)
    !popped;
  Alcotest.(check bool) "ring drained" true (Check.Ring.is_empty ring)

(* ------------------------------------------------------------------ *)
(* Conn over a socketpair                                              *)
(* ------------------------------------------------------------------ *)

(* The frames a [Live.Conn.recv] hands over, appended to [got] (newest
   first). *)
let collect got conn = Live.Conn.recv conn (fun f -> got := f :: !got)

let test_conn_socketpair () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let ca = Live.Conn.create a and cb = Live.Conn.create b in
  (* a large frame forces multiple short writes through the kernel
     buffer; interleave flush and recv like a real event loop *)
  let big = W.Trace_line (String.make 300_000 'x') in
  let outgoing = sample_frames @ [ big ] @ sample_frames in
  List.iter (Live.Conn.send ca) outgoing;
  let got = ref [] in
  let deadline = Unix.gettimeofday () +. 10. in
  while
    List.length !got < List.length outgoing
    && Unix.gettimeofday () < deadline
  do
    Live.Conn.flush ca;
    (match Unix.select [ Live.Conn.fd cb ] [] [] 0.05 with
    | rd, _, _ -> if rd <> [] then collect got cb
    | exception Unix.Unix_error (EINTR, _, _) -> ())
  done;
  Alcotest.(check (list frame))
    "all frames crossed the socket" outgoing (List.rev !got);
  (* EOF detection *)
  Live.Conn.close ca;
  collect got cb;
  Alcotest.(check bool) "peer death detected" false (Live.Conn.alive cb);
  Live.Conn.close cb

(* EOF in mid-batch: a batch of whole frames, then half a frame, then
   the peer closes.  One [recv] hands over every whole frame, drops the
   torn one and reports the death. *)
let test_conn_eof_mid_batch () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let cb = Live.Conn.create b in
  let whole = Bytes.concat Bytes.empty (List.map W.to_wire sample_frames) in
  let torn = W.to_wire (W.Client "cut short") in
  let torn = Bytes.sub torn 0 (Bytes.length torn / 2) in
  let raw = Bytes.cat whole torn in
  Alcotest.(check int) "the batch fits the kernel buffer" (Bytes.length raw)
    (Unix.write a raw 0 (Bytes.length raw));
  Unix.close a;
  let got = ref [] in
  collect got cb;
  Alcotest.(check (list frame)) "every whole frame" sample_frames
    (List.rev !got);
  Alcotest.(check bool) "peer death detected" false (Live.Conn.alive cb);
  Alcotest.(check (option string)) "at EOF" (Some "eof") (Live.Conn.error cb);
  Live.Conn.close cb

(* Frames compare by their canonical codec images ([frame] compares
   printed forms, which elide a snapshot's contents). *)
let same_frames a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> Bytes.equal (W.encode x) (W.encode y)) a b

let mixed_frame i =
  match i mod 5 with
  | 0 -> W.Client (Printf.sprintf "c%d" i)
  | 1 -> W.Trace_line (String.make (i mod 700) 'x')
  | 2 ->
      W.Pkt
        {
          src = i mod 3;
          dst = (i + 1) mod 3;
          pkt = P.Fwd { gid = Gid.g0; fsn = i; payload = string_of_int i };
        }
  | 3 -> W.Pkt { src = 0; dst = 2; pkt = P.Ack { gid = Gid.g0; upto = i } }
  | _ -> List.nth sample_frames (i mod List.length sample_frames)

(* A 2.4 MB piece of a delivery snapshot: one frame many times the
   kernel buffer. *)
let big_snapshot () =
  let snapshot =
    W.Snapshot_part
      {
        gid = Gid.succ Gid.g0;
        piece =
          W.prefix_image
            (List.init 300_000 (fun i -> (Printf.sprintf "m%d" i, i mod 3)));
      }
  in
  Alcotest.(check bool) "the snapshot frame is multi-MB" true
    (Bytes.length (W.to_wire snapshot) > 2_000_000);
  snapshot

(* The coalesced output buffer under a tiny kernel buffer: thousands of
   mixed frames and a multi-MB snapshot, sent in random batches with a
   flush and a read between batches, so writes stop short mid-frame
   over and over.  Every frame arrives, whole and in order, and the
   buffer drains to 0. *)
let test_conn_coalesced_small_sndbuf () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Unix.setsockopt_int a SO_SNDBUF 4096;
  Unix.setsockopt_int b SO_RCVBUF 4096;
  let ca = Live.Conn.create a and cb = Live.Conn.create b in
  let snapshot = big_snapshot () in
  let n = 5000 in
  let outgoing =
    List.init n (fun i -> if i = n / 2 then snapshot else mixed_frame i)
  in
  let rng = Random.State.make [| 11 |] in
  let got = ref [] in
  let receive timeout =
    match Unix.select [ Live.Conn.fd cb ] [] [] timeout with
    | rd, _, _ -> if rd <> [] then collect got cb
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  in
  let rec send_batches = function
    | [] -> ()
    | frames ->
        let k = 1 + Random.State.int rng 50 in
        let batch = List.filteri (fun i _ -> i < k) frames in
        List.iter (Live.Conn.send ca) batch;
        Live.Conn.flush ca;
        receive 0.;
        send_batches (List.filteri (fun i _ -> i >= k) frames)
  in
  send_batches outgoing;
  let deadline = Unix.gettimeofday () +. 30. in
  while
    (Live.Conn.pending_out ca > 0 || List.length !got < n)
    && Unix.gettimeofday () < deadline
  do
    Live.Conn.flush ca;
    receive 0.01
  done;
  Alcotest.(check int) "output buffer drained" 0 (Live.Conn.pending_out ca);
  Alcotest.(check bool) "both ends alive" true
    (Live.Conn.alive ca && Live.Conn.alive cb);
  Alcotest.(check int) "every frame arrived" n (List.length !got);
  Alcotest.(check bool) "whole and in order" true
    (same_frames outgoing (List.rev !got));
  Live.Conn.close ca;
  Live.Conn.close cb

(* A callback that sends on the connection it is reading: [cb] echoes
   every frame back from inside its own [recv], with 4 KiB kernel
   buffers both ways and the multi-MB snapshot among the frames, so
   echoes pile up in [cb]'s output buffer mid-read.  They arrive whole
   and in order, and both output buffers drain. *)
let test_conn_send_from_recv () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  List.iter
    (fun fd ->
      Unix.setsockopt_int fd SO_SNDBUF 4096;
      Unix.setsockopt_int fd SO_RCVBUF 4096)
    [ a; b ];
  let ca = Live.Conn.create a and cb = Live.Conn.create b in
  let n = 2000 in
  let outgoing =
    List.init n (fun i -> if i = n / 2 then big_snapshot () else mixed_frame i)
  in
  List.iter (Live.Conn.send ca) outgoing;
  let echoed = ref 0 and got = ref [] and n_got = ref 0 in
  let deadline = Unix.gettimeofday () +. 30. in
  while
    (!n_got < n || Live.Conn.pending_out ca > 0 || Live.Conn.pending_out cb > 0)
    && Unix.gettimeofday () < deadline
  do
    Live.Conn.flush ca;
    Live.Conn.recv cb (fun f ->
        incr echoed;
        Live.Conn.send cb f);
    Live.Conn.flush cb;
    Live.Conn.recv ca (fun f ->
        incr n_got;
        got := f :: !got);
    match Unix.select [ a; b ] [] [] 0.001 with
    | _ -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done;
  Alcotest.(check int) "every frame echoed" n !echoed;
  Alcotest.(check int) "both output buffers drained" 0
    (Live.Conn.pending_out ca + Live.Conn.pending_out cb);
  Alcotest.(check bool) "both ends alive" true
    (Live.Conn.alive ca && Live.Conn.alive cb);
  Alcotest.(check bool) "echoes whole and in order" true
    (same_frames outgoing (List.rev !got));
  Live.Conn.close ca;
  Live.Conn.close cb

let syscw () =
  let ic = open_in "/proc/self/io" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"syscw:" line ->
        int_of_string (String.trim (String.sub line 6 (String.length line - 6)))
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* One flush of N queued small frames costs ⌈bytes / 64 KiB⌉ + 1 write
   system calls at most, not one per frame. *)
let test_conn_flush_syscalls () =
  if not (Sys.file_exists "/proc/self/io") then ()
  else begin
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
    Unix.setsockopt_int a SO_SNDBUF (1 lsl 20);
    let ca = Live.Conn.create a and cb = Live.Conn.create b in
    let n = 2000 in
    let outgoing = List.init n mixed_frame in
    List.iter (Live.Conn.send ca) outgoing;
    let bytes = Live.Conn.pending_out ca in
    let before = syscw () in
    Live.Conn.flush ca;
    let writes = syscw () - before in
    let bound = ((bytes + 65535) / 65536) + 1 in
    Alcotest.(check bool)
      (Printf.sprintf "%d frames, %d bytes: %d writes <= %d" n bytes writes
         bound)
      true (writes <= bound);
    let got = ref [] in
    let deadline = Unix.gettimeofday () +. 10. in
    while List.length !got < n && Unix.gettimeofday () < deadline do
      Live.Conn.flush ca;
      match Unix.select [ Live.Conn.fd cb ] [] [] 0.01 with
      | rd, _, _ -> if rd <> [] then collect got cb
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done;
    Alcotest.(check bool) "all frames arrived in order" true
      (same_frames outgoing (List.rev !got));
    Live.Conn.close ca;
    Live.Conn.close cb
  end

(* ------------------------------------------------------------------ *)
(* Hub: reports and violations from a raw connection                   *)
(* ------------------------------------------------------------------ *)

(* A report is the sending connection's, whatever proc the frame names
   (as for Pkt); a Violation frame latches in the hub's own monitor. *)
let test_hub_reports () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dvs-test-hub-%d.sock" (Unix.getpid ()))
  in
  let hub =
    Live.Hub.create
      {
        Live.Hub.sock_path = sock;
        universe = Proc.Set.universe 2;
        seed = 1;
        merged_path = None;
      }
  in
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX sock);
  let c = Live.Conn.create fd in
  let send_until frame ready =
    Live.Conn.send c frame;
    let deadline = Unix.gettimeofday () +. 5. in
    while (not (ready ())) && Unix.gettimeofday () < deadline do
      Live.Conn.flush c;
      Live.Hub.poll hub ~timeout:0.01
    done
  in
  send_until
    (W.Hello { proc = 0; trace = None })
    (fun () -> Proc.Set.mem 0 (Live.Hub.connected hub));
  let g = Gid.succ Gid.g0 in
  send_until
    (W.Delivered
       {
         proc = 1;
         events = 3;
         records =
           [
             { W.gid = g; sn = 1; origin = 1; msg = "x" };
             { W.gid = g; sn = 2; origin = 0; msg = "y" };
           ];
       })
    (fun () -> Live.Hub.delivered_total hub = 2);
  Alcotest.(check int) "both records counted" 2 (Live.Hub.delivered_total hub);
  Alcotest.(check int) "attributed to the connection" 2
    (Live.Hub.delivered_in hub ~proc:0 ~gid:g);
  Alcotest.(check int) "not to the proc the frame names" 0
    (Live.Hub.delivered_in hub ~proc:1 ~gid:g);
  Alcotest.(check int) "events counted" 3
    (Obs.Metrics.count (Live.Hub.metrics hub) "soak.trace_events");
  Alcotest.(check bool) "clean so far" true (Live.Hub.ok hub);
  let v =
    { Obs.Monitor.rule = "unique-sequencing"; at_seq = 7; reason = "seeded" }
  in
  send_until (W.Violation v) (fun () -> not (Live.Hub.ok hub));
  Alcotest.(check (list string)) "the endpoint's latch is the hub's"
    [ "unique-sequencing" ]
    (List.map
       (fun v -> v.Obs.Monitor.rule)
       (Obs.Monitor.violations (Live.Hub.monitor hub)));
  Live.Conn.close c;
  Live.Hub.shutdown hub

(* ------------------------------------------------------------------ *)
(* Hub: routing images, snapshots in pieces                           *)
(* ------------------------------------------------------------------ *)

let test_sock name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "dvs-test-%s-%d.sock" name (Unix.getpid ()))

(* A hub for three endpoints, run by [f] and shut down after it. *)
let with_hub name f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = test_sock name in
  let hub =
    Live.Hub.create
      {
        Live.Hub.sock_path = sock;
        universe = Proc.Set.universe 3;
        seed = 1;
        merged_path = None;
      }
  in
  Fun.protect ~finally:(fun () -> Live.Hub.shutdown hub) (fun () -> f hub sock)

(* Poll the hub and flush [conns] until [ready ()], for at most 10 s. *)
let pump hub conns ready =
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (ready ())) && Unix.gettimeofday () < deadline do
    List.iter Live.Conn.flush conns;
    Live.Hub.poll hub ~timeout:0.002
  done

(* A hand-driven endpoint: a connection to the hub that said Hello as
   [proc] and has been registered. *)
let raw_endpoint hub sock proc =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX sock);
  let c = Live.Conn.create fd in
  Live.Conn.send c (W.Hello { proc; trace = None });
  pump hub [ c ] (fun () -> Proc.Set.mem proc (Live.Hub.connected hub));
  Alcotest.(check bool) (Printf.sprintf "p%d registered" proc) true
    (Proc.Set.mem proc (Live.Hub.connected hub));
  c

(* Copies of the images [c] receives, appended to [got] (newest first). *)
let collect_images got c =
  Live.Conn.recv_images c (fun b pos len -> got := Bytes.sub b pos len :: !got)

let decode_image image =
  match W.decode image with
  | Ok f -> f
  | Error e -> Alcotest.failf "an image the hub forwarded does not decode: %s" e

let pkt_images got =
  List.filter
    (fun image -> match decode_image image with W.Pkt _ -> true | _ -> false)
    (List.rev got)

let packets =
  [|
    P.Fwd { gid = Gid.g0; fsn = 1; payload = "hello" };
    P.Seq { gid = Gid.succ Gid.g0; sn = 7; origin = 0; payload = "" };
    P.Ack { gid = Gid.g0; upto = 41 };
    P.Stable { gid = Gid.g0; upto = 300_000 };
    P.Fwd { gid = Gid.g0; fsn = 2; payload = String.make 5_000 '\xff' };
  |]

(* A recorded mixed stream from p0 — packets to p1, to itself and to an
   absent p2, packets whose src names another process, reports, client
   and trace frames the hub ignores — reaches p1 as exactly the images
   [Wire.to_wire] writes for its packets to p1 with src set to p0, in
   order; the reports are counted as before. *)
let test_hub_routes_images () =
  with_hub "route" (fun hub sock ->
      let a = raw_endpoint hub sock 0 and b = raw_endpoint hub sock 1 in
      let stream =
        List.init 600 (fun i ->
            let pkt = packets.(i mod Array.length packets) in
            match i mod 8 with
            | 0 | 1 | 2 -> W.Pkt { src = 0; dst = 1; pkt }
            | 3 -> W.Pkt { src = 2; dst = 1; pkt }
            | 4 -> W.Pkt { src = 0; dst = 2; pkt }
            | 5 ->
                W.Delivered
                  {
                    proc = 0;
                    events = 1;
                    records =
                      [ { W.gid = Gid.succ Gid.g0; sn = i; origin = 0; msg = "r" } ];
                  }
            | 6 -> W.Client (string_of_int i)
            | _ -> W.Trace_line "{}")
      in
      let want =
        List.filter_map
          (function
            | W.Pkt { dst = 1; pkt; _ } ->
                let wire = W.to_wire (W.Pkt { src = 0; dst = 1; pkt }) in
                Some (Bytes.sub wire 4 (Bytes.length wire - 4))
            | _ -> None)
          stream
      in
      List.iter (Live.Conn.send a) stream;
      let got = ref [] in
      pump hub [ a ] (fun () ->
          collect_images got b;
          List.length (pkt_images !got) >= List.length want);
      Alcotest.check images "p1 got the re-encoded stream, byte for byte" want
        (pkt_images !got);
      Alcotest.(check int) "reports counted" 75 (Live.Hub.delivered_total hub);
      Alcotest.(check int) "packets to the absent p2 undeliverable" 75
        (Obs.Metrics.count (Live.Hub.metrics hub) "soak.undeliverable");
      Live.Conn.close a;
      Live.Conn.close b)

(* A Pkt whose src names another process is rewritten to its
   connection's, as the hub always has: p0 claiming to be p2, and p0
   claiming to be p1 (the receiver). *)
let test_hub_rewrites_forged_src () =
  with_hub "forged" (fun hub sock ->
      let a = raw_endpoint hub sock 0 and b = raw_endpoint hub sock 1 in
      let pkt = packets.(0) in
      List.iter
        (fun src -> Live.Conn.send a (W.Pkt { src; dst = 1; pkt }))
        [ 2; 1 ];
      let got = ref [] in
      pump hub [ a ] (fun () ->
          collect_images got b;
          List.length (pkt_images !got) >= 2);
      let rewritten = W.encode (W.Pkt { src = 0; dst = 1; pkt }) in
      Alcotest.check images "src rewritten to the connection's"
        [ rewritten; rewritten ] (pkt_images !got);
      Live.Conn.close a;
      Live.Conn.close b)

(* A Pkt image with one bit flipped — at every byte of the image, one
   connection each — kills its sender's connection: the receiver gets
   the intact packet sent before it, never the corrupt one, nor the
   packet after it. *)
let test_hub_kills_corrupt_sender () =
  with_hub "corrupt" (fun hub sock ->
      let b = raw_endpoint hub sock 1 in
      let image src payload =
        W.encode (W.Pkt { src; dst = 1; pkt = P.Fwd { gid = Gid.g0; fsn = 1; payload } })
      in
      let before = image 0 "before" and after = image 0 "after" in
      let victim = image 0 "victim" in
      for k = 0 to Bytes.length victim - 1 do
        let a = raw_endpoint hub sock 0 in
        let corrupt = Bytes.copy victim in
        Bytes.set corrupt k
          (Char.chr (Char.code (Bytes.get corrupt k) lxor (1 lsl (k mod 8))));
        List.iter
          (fun i -> Live.Conn.send_image a i ~pos:0 ~len:(Bytes.length i))
          [ before; corrupt; after ];
        let got = ref [] in
        pump hub [ a ] (fun () ->
            collect_images got b;
            (not (Proc.Set.mem 0 (Live.Hub.connected hub)))
            && pkt_images !got <> []);
        (* let anything the hub wrongly forwarded arrive *)
        for _ = 1 to 10 do
          Live.Hub.poll hub ~timeout:0.002;
          collect_images got b
        done;
        if Proc.Set.mem 0 (Live.Hub.connected hub) then
          Alcotest.failf "bit flip at byte %d: the sender stayed connected" k;
        Alcotest.check images
          (Printf.sprintf "bit flip at byte %d: only the packet before it" k)
          [ before ] (pkt_images !got);
        Live.Conn.close a
      done;
      Live.Conn.close b)

(* Under a certain reorder, the hub delivers a channel's packets in
   swapped pairs, the held one second, and a phase change releases the
   one still held. *)
let test_hub_reorders_images () =
  with_hub "reorder" (fun hub sock ->
      let a = raw_endpoint hub sock 0 and b = raw_endpoint hub sock 1 in
      Live.Hub.set_phase hub (Some (phase ~reorder:1. ()));
      let image i =
        W.encode
          (W.Pkt
             {
               src = 0;
               dst = 1;
               pkt = P.Fwd { gid = Gid.g0; fsn = i; payload = string_of_int i };
             })
      in
      List.iter
        (fun i ->
          let m = image i in
          Live.Conn.send_image a m ~pos:0 ~len:(Bytes.length m))
        [ 1; 2; 3 ];
      let got = ref [] in
      pump hub [ a ] (fun () ->
          collect_images got b;
          List.length (pkt_images !got) >= 2);
      Live.Hub.set_phase hub None;
      pump hub [ a ] (fun () ->
          collect_images got b;
          List.length (pkt_images !got) >= 3);
      Alcotest.check images "swapped, then the held one released"
        [ image 2; image 1; image 3 ]
        (pkt_images !got);
      Live.Conn.close a;
      Live.Conn.close b)

(* Control frames never pass through the proxy: under a phase that drops
   every packet, views and client injections still arrive. *)
let test_hub_control_plane_reliable () =
  with_hub "control" (fun hub sock ->
      let a = raw_endpoint hub sock 0 and b = raw_endpoint hub sock 1 in
      Live.Hub.set_phase hub (Some (phase ~drop:1. ()));
      for _ = 1 to 20 do
        Live.Conn.send a (W.Pkt { src = 0; dst = 1; pkt = packets.(0) })
      done;
      let c = raw_endpoint hub sock 2 in
      Alcotest.(check bool) "injected" true
        (Live.Hub.inject hub "c0" && Live.Hub.inject hub "c1"
        && Live.Hub.inject hub "c2");
      let got = ref [] in
      let has pred = List.exists (fun i -> pred (decode_image i)) !got in
      pump hub [ a ] (fun () ->
          collect_images got b;
          has (function W.Client _ -> true | _ -> false)
          && has (function
               | W.View_note v -> Proc.Set.cardinal (View.set v) = 3
               | _ -> false));
      Alcotest.(check bool) "the client injection arrived" true
        (has (function W.Client _ -> true | _ -> false));
      Alcotest.(check bool) "the three-member view arrived" true
        (has (function
          | W.View_note v -> Proc.Set.cardinal (View.set v) = 3
          | _ -> false));
      Alcotest.(check int) "every packet dropped" 0 (List.length (pkt_images !got));
      Alcotest.(check int) "counted as drops" 20
        (Obs.Metrics.count (Live.Hub.metrics hub) "proxy.dropped");
      List.iter Live.Conn.close [ a; b; c ])

(* A snapshot whose view image is larger than [Wire.max_frame] — the
   ~1.3 million deliveries at which a whole-snapshot frame used to kill
   the connection — goes as pieces over a real connection and reaches
   [Hub.snapshots] whole, and only once its closing frame has. *)
let test_hub_snapshot_beyond_max_frame () =
  with_hub "snapshot" (fun hub sock ->
      let a = raw_endpoint hub sock 0 in
      let n = 1_350_000 in
      let entry i = (Printf.sprintf "m%010d" i, i mod 3) in
      let big = W.prefix_image_iter (fun f -> for i = 0 to n - 1 do f (entry i) done) in
      Alcotest.(check bool) "the image outgrows max_frame" true
        (String.length big > W.max_frame);
      let small = W.prefix_image [ ("x", 1) ] in
      let g1 = Gid.succ Gid.g0 in
      let g2 = Gid.succ g1 in
      Live.Hub.request_snapshots hub;
      (* each piece crosses before the next is sent; the closing frame
         is held back *)
      let pieces = ref 0 and closing = ref None in
      W.snapshot [ (g1, small); (g2, big) ] (function
        | W.Snapshot_done _ as f -> closing := Some f
        | f ->
            incr pieces;
            Live.Conn.send a f;
            pump hub [ a ] (fun () -> Live.Conn.pending_out a = 0));
      Alcotest.(check bool) "sent in many pieces" true (!pieces > 17);
      for _ = 1 to 20 do
        Live.Hub.poll hub ~timeout:0.005
      done;
      Alcotest.(check int) "nothing published before the closing frame" 0
        (List.length (Live.Hub.snapshots hub));
      Option.iter (Live.Conn.send a) !closing;
      pump hub [ a ] (fun () -> Live.Hub.snapshots hub <> []);
      (match Live.Hub.snapshots hub with
      | [ (0, [ (g, [ ("x", 1) ]); (g', prefix) ]) ]
        when Gid.equal g g1 && Gid.equal g' g2 ->
          Alcotest.(check int) "every delivery" n (List.length prefix);
          Alcotest.(check bool) "the same prefix, byte for byte" true
            (String.equal big (W.prefix_image prefix))
      | _ -> Alcotest.fail "the snapshot did not arrive whole");
      Alcotest.(check bool) "the connection survived" true
        (Proc.Set.mem 0 (Live.Hub.connected hub));
      Alcotest.(check int) "no bad snapshot" 0
        (Obs.Metrics.count (Live.Hub.metrics hub) "soak.bad_snapshots");
      Live.Conn.close a)

(* Within a round, endpoints that send the same image of a view share
   one decoded prefix; an endpoint whose image differs gets its own. *)
let test_hub_snapshot_sharing () =
  with_hub "sharing" (fun hub sock ->
      let eps = List.map (raw_endpoint hub sock) [ 0; 1; 2 ] in
      let g = Gid.succ Gid.g0 in
      let short = [ ("a", 0) ] and long = [ ("a", 0); ("b", 1) ] in
      Live.Hub.request_snapshots hub;
      List.iter2
        (fun c prefix -> W.snapshot [ (g, W.prefix_image prefix) ] (Live.Conn.send c))
        eps [ long; short; long ];
      pump hub eps (fun () -> List.length (Live.Hub.snapshots hub) = 3);
      let prefix p =
        match List.assoc_opt p (Live.Hub.snapshots hub) with
        | Some [ (g', l) ] when Gid.equal g g' -> l
        | _ -> Alcotest.failf "p%d's snapshot missing" p
      in
      Alcotest.(check bool) "p0 and p2 share one decoded prefix" true
        (prefix 0 == prefix 2);
      Alcotest.(check bool) "p0's prefix" true (prefix 0 = long);
      Alcotest.(check bool) "p1's own prefix" true (prefix 1 = short);
      List.iter Live.Conn.close eps)

(* [Conn.send] refuses a frame longer than [Wire.max_frame], which the
   receiver would refuse, and leaves the connection as it was: the next
   frame crosses intact. *)
let test_conn_send_rejects_oversize () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let ca = Live.Conn.create a and cb = Live.Conn.create b in
  (match Live.Conn.send ca (W.Client (String.make W.max_frame 'x')) with
  | () -> Alcotest.fail "an oversize frame was accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "nothing buffered" 0 (Live.Conn.pending_out ca);
  Alcotest.(check bool) "still alive" true (Live.Conn.alive ca);
  let f = W.Client "after" in
  Live.Conn.send ca f;
  Live.Conn.flush ca;
  let got = ref [] in
  let deadline = Unix.gettimeofday () +. 5. in
  while !got = [] && Unix.gettimeofday () < deadline do
    ignore (Unix.select [ b ] [] [] 0.01);
    collect got cb
  done;
  Alcotest.(check (list frame)) "the next frame crossed" [ f ] !got;
  Live.Conn.close ca;
  Live.Conn.close cb

(* ------------------------------------------------------------------ *)
(* In-process live run (domain mode)                                   *)
(* ------------------------------------------------------------------ *)

let test_live_domains () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dvs-test-live-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  let sock = Filename.concat dir "hub.sock" in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let universe = Proc.Set.universe 3 in
  let hub =
    Live.Hub.create
      { Live.Hub.sock_path = sock; universe; seed = 11; merged_path = None }
  in
  let doms =
    List.init 3 (fun p ->
        Live.Endpoint.spawn_domain
          {
            Live.Endpoint.me = p;
            sock_path = sock;
            trace_path = None;
            retransmit_s = 0.05;
          })
  in
  let deadline = Unix.gettimeofday () +. 10. in
  let full () =
    match Live.Hub.primary hub with
    | Some v -> Proc.Set.cardinal (View.set v) = 3
    | None -> false
  in
  while (not (full ())) && Unix.gettimeofday () < deadline do
    Live.Hub.poll hub ~timeout:0.01
  done;
  Alcotest.(check bool) "full view formed" true (full ());
  let target = 500 in
  let injected = ref 0 in
  let drained () =
    match Live.Hub.primary hub with
    | None -> false
    | Some v ->
        let g = View.id v in
        let want = Live.Hub.injected_in hub g in
        want > 0
        && Proc.Set.for_all
             (fun p -> Live.Hub.delivered_in hub ~proc:p ~gid:g = want)
             (View.set v)
  in
  let deadline = Unix.gettimeofday () +. 30. in
  while
    ((!injected < target) || not (drained ()))
    && Unix.gettimeofday () < deadline
  do
    if !injected < target then
      if Live.Hub.inject hub (Printf.sprintf "m%d" !injected) then
        incr injected;
    Live.Hub.poll hub ~timeout:0.002
  done;
  Alcotest.(check int) "all injected" target !injected;
  Alcotest.(check bool) "drained" true (drained ());
  Alcotest.(check bool)
    "every endpoint delivered the full load" true
    (Live.Hub.delivered_total hub >= 3 * target);
  (* snapshots agree byte-for-byte *)
  Live.Hub.request_snapshots hub;
  let deadline = Unix.gettimeofday () +. 5. in
  while
    List.length (Live.Hub.snapshots hub) < 3
    && Unix.gettimeofday () < deadline
  do
    Live.Hub.poll hub ~timeout:0.01
  done;
  let snaps = Live.Hub.snapshots hub in
  Alcotest.(check int) "three snapshots" 3 (List.length snaps);
  let images =
    List.map
      (fun (p, views) ->
        ( p,
          List.map
            (fun (g, prefix) ->
              (g, Check.Codec.encode W.prefix_codec prefix))
            views ))
      snaps
  in
  List.iter
    (fun (p1, vs1) ->
      List.iter
        (fun (p2, vs2) ->
          if p1 < p2 then
            List.iter
              (fun (g, b1) ->
                match List.assoc_opt g vs2 with
                | Some b2 ->
                    Alcotest.(check bool)
                      (Printf.sprintf "prefix of %s agrees between %d and %d"
                         (Gid.to_string g) p1 p2)
                      true (Bytes.equal b1 b2)
                | None -> ())
              vs1)
        images)
    images;
  (* the reports and the endpoints' own state agree: every delivery
     reported is one position of a snapshot prefix *)
  Alcotest.(check int) "delivered_total = the reported records"
    (List.fold_left
       (fun n (_, views) ->
         List.fold_left (fun n (_, prefix) -> n + List.length prefix) n views)
       0 snaps)
    (Live.Hub.delivered_total hub);
  Alcotest.(check bool) "monitors clean" true (Live.Hub.ok hub);
  let metrics = Live.Hub.metrics hub in
  Alcotest.(check bool) "the reports counted trace events" true
    (Obs.Metrics.count metrics "soak.trace_events" > 0);
  Alcotest.(check int) "no trace line rejected" 0
    (Obs.Metrics.count metrics "soak.trace_parse_errors");
  Live.Hub.shutdown hub;
  List.iter Domain.join doms

let () =
  Alcotest.run "live"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "truncation" `Quick test_wire_truncation;
          Alcotest.test_case "mutation" `Quick test_wire_mutation;
          Alcotest.test_case "prefix image" `Quick test_prefix_image_iter;
          Alcotest.test_case "frame check in place" `Quick
            test_wire_check_in_place;
        ] );
      ( "reader",
        [
          Alcotest.test_case "byte-at-a-time" `Quick
            test_reader_byte_at_a_time;
          Alcotest.test_case "random-chunks" `Quick test_reader_random_chunks;
          Alcotest.test_case "truncation-and-corruption" `Quick
            test_reader_truncation_and_corruption;
        ] );
      ( "proxy",
        [
          Alcotest.test_case "faults" `Quick test_proxy_faults;
          Alcotest.test_case "images route as frames did" `Quick
            test_proxy_bytes_match_frames;
        ] );
      ("ring", [ Alcotest.test_case "torture" `Quick test_ring_torture ]);
      ( "conn",
        [
          Alcotest.test_case "socketpair" `Quick test_conn_socketpair;
          Alcotest.test_case "EOF in mid-batch" `Quick test_conn_eof_mid_batch;
          Alcotest.test_case "coalesced, small SO_SNDBUF" `Quick
            test_conn_coalesced_small_sndbuf;
          Alcotest.test_case "send from the recv callback" `Quick
            test_conn_send_from_recv;
          Alcotest.test_case "one flush, few writes" `Quick
            test_conn_flush_syscalls;
          Alcotest.test_case "send rejects an oversize frame" `Quick
            test_conn_send_rejects_oversize;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "hub reports" `Quick test_hub_reports;
          Alcotest.test_case "hub routes Pkt images as bytes" `Quick
            test_hub_routes_images;
          Alcotest.test_case "hub rewrites a forged src" `Quick
            test_hub_rewrites_forged_src;
          Alcotest.test_case "a flipped bit kills the sender" `Quick
            test_hub_kills_corrupt_sender;
          Alcotest.test_case "reordered packets swap" `Quick
            test_hub_reorders_images;
          Alcotest.test_case "control plane reliable under drops" `Quick
            test_hub_control_plane_reliable;
          Alcotest.test_case "snapshot beyond max_frame" `Quick
            test_hub_snapshot_beyond_max_frame;
          Alcotest.test_case "agreeing snapshots decoded once" `Quick
            test_hub_snapshot_sharing;
          Alcotest.test_case "domain-mode-soak" `Quick test_live_domains;
        ] );
    ]
