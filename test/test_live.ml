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
    W.Snapshot
      {
        proc = 1;
        views =
          [
            (Gid.g0, W.prefix_image [ ("a", 0); ("b", 2) ]);
            (Gid.succ Gid.g0, W.prefix_image [ ("", 1) ]);
          ];
      };
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

(* ------------------------------------------------------------------ *)
(* Incremental Reader                                                  *)
(* ------------------------------------------------------------------ *)

let stream_of frames =
  let b = Buffer.create 256 in
  List.iter (fun f -> Buffer.add_bytes b (W.to_wire f)) frames;
  Buffer.to_bytes b

let drain_reader r =
  let rec go acc =
    match W.Reader.next r with
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

(* a truncated stream never yields a frame; a corrupted body is a sticky
   error *)
let test_reader_truncation_and_corruption () =
  let image = W.to_wire (List.nth sample_frames 1) in
  for len = 0 to Bytes.length image - 1 do
    let r = W.Reader.create () in
    W.Reader.feed r image 0 len;
    match W.Reader.next r with
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
  (match W.Reader.next r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt frame image not rejected");
  (* and the error is sticky *)
  W.Reader.feed r image 0 (Bytes.length image);
  (match W.Reader.next r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reader recovered from a corrupt stream");
  (* an out-of-range length is rejected without allocating *)
  let big = Bytes.create 4 in
  Bytes.set_int32_be big 0 (Int32.of_int (W.max_frame + 1));
  let r = W.Reader.create () in
  W.Reader.feed r big 0 4;
  match W.Reader.next r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversize frame length accepted"

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

let test_proxy_faults () =
  let p = Live.Proxy.create ~seed:42 () in
  let f = pkt_frame "x" in
  (* calm: exactly one copy *)
  Alcotest.(check (list frame)) "calm" [ f ]
    (Live.Proxy.route p ~src:0 ~dst:1 f);
  (* certain drop *)
  Live.Proxy.set_phase p (phase ~drop:1. ());
  Alcotest.(check (list frame)) "dropped" []
    (Live.Proxy.route p ~src:0 ~dst:1 f);
  (* certain duplicate *)
  Live.Proxy.set_phase p (phase ~duplicate:1. ());
  Alcotest.(check (list frame)) "duplicated" [ f; f ]
    (Live.Proxy.route p ~src:0 ~dst:1 f);
  (* certain reorder: pairwise swap per channel *)
  Live.Proxy.set_phase p (phase ~reorder:1. ());
  let f1 = pkt_frame "first" and f2 = pkt_frame "second" in
  Alcotest.(check (list frame)) "held" []
    (Live.Proxy.route p ~src:0 ~dst:1 f1);
  Alcotest.(check (list frame)) "swapped" [ f2; f1 ]
    (Live.Proxy.route p ~src:0 ~dst:1 f2);
  (* flush releases a held packet *)
  Alcotest.(check (list frame)) "held again" []
    (Live.Proxy.route p ~src:0 ~dst:1 f1);
  (match Live.Proxy.flush p with
  | [ (0, 1, g) ] -> Alcotest.check frame "flushed the held packet" f1 g
  | l -> Alcotest.failf "flush returned %d packets" (List.length l));
  (* control frames are never faulted *)
  Live.Proxy.set_phase p (phase ~drop:1. ());
  let note = W.View_note sample_view in
  Alcotest.(check (list frame)) "control plane reliable" [ note ]
    (Live.Proxy.route p ~src:0 ~dst:1 note);
  (* partition cut *)
  let cut =
    Sim.Partition.of_components
      [ Proc.Set.of_list [ 0; 1 ]; Proc.Set.of_list [ 2 ] ]
  in
  Live.Proxy.clear p;
  Live.Proxy.set_phase p (phase ~partition:cut ());
  Alcotest.(check (list frame)) "cross-component cut" []
    (Live.Proxy.route p ~src:0 ~dst:2 f);
  Alcotest.(check (list frame)) "same component flows" [ f ]
    (Live.Proxy.route p ~src:0 ~dst:1 f)

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

(* A 2.4 MB delivery snapshot: one frame many times the kernel buffer. *)
let big_snapshot () =
  let snapshot =
    W.Snapshot
      {
        proc = 1;
        views =
          [
            ( Gid.succ Gid.g0,
              W.prefix_image
                (List.init 300_000 (fun i -> (Printf.sprintf "m%d" i, i mod 3)))
            );
          ];
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
        ] );
      ( "reader",
        [
          Alcotest.test_case "byte-at-a-time" `Quick
            test_reader_byte_at_a_time;
          Alcotest.test_case "random-chunks" `Quick test_reader_random_chunks;
          Alcotest.test_case "truncation-and-corruption" `Quick
            test_reader_truncation_and_corruption;
        ] );
      ("proxy", [ Alcotest.test_case "faults" `Quick test_proxy_faults ]);
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
        ] );
      ( "runtime",
        [
          Alcotest.test_case "hub reports" `Quick test_hub_reports;
          Alcotest.test_case "domain-mode-soak" `Quick test_live_domains;
        ] );
    ]
