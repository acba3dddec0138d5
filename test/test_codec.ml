(* Check.Codec: the versioned flat binary state encoding.

   Per registry entry (every one ships a codec): QCheck round-trip
   (decode ∘ encode = id up to the entry's state equality), canonicality /
   injectivity over the observed reachable states (equal encodings ⇔ equal
   dedup keys), a cross-check that flat-fed fingerprints dedup exactly what
   the string path dedups, byte-level golden digest pins (the initial
   state, and the frames of a successor walk), and equality =
   codec-image equality over observed states.  Framing:
   wrong-version rejection, truncated-buffer rejection, and a single-byte
   mutation fuzz (the 128-bit checksum must turn every corruption into a
   clean [Error] — never a mis-decode).  A seeded codec defect (the vs-spec
   encoder aliasing [next] into the [next_safe] slot) must be caught by the
   injectivity sweep and by the dedup differential.  Registry-wide parity:
   [`Throughput] (hash-compacted seen-set) visits exactly the states
   [`Deterministic] does, with identical verdicts, at jobs:1 and jobs:4.
   Segment memo: a warm scratch must reproduce the one-shot images of the
   stack entries' states, an evicting memo must stay exact, and two
   domains with a scratch each must agree with the sequential images. *)

module An = Analysis.Analyzer
module Reg = Analysis.Registry
module C = Check.Codec

(* ------------------------------------------------------------------ *)
(* Observed-state collection                                           *)
(* ------------------------------------------------------------------ *)

(* The states one exploration expands, in observation order.  Invariants
   and step properties are deliberately dropped: defect entries must yield
   their full (small) graph, not stop at the seeded failure. *)
let observed (type s a) ?(max_states = 1200) (sub : (s, a) An.subject) :
    s list =
  let acc = ref [] in
  let _ =
    Check.Explorer.run sub.automaton ~key:sub.key ~invariants:[] ~seed:[| 0 |]
      ~max_states ~jobs:1 ~state_rng:true
      ~observe:(fun o -> acc := o.Check.Explorer.obs_state :: !acc)
      ~init:sub.init ()
  in
  List.rev !acc

let entry_equal (type s a) (sub : (s, a) An.subject) : s -> s -> bool =
  match sub.An.equal_state with
  | Some eq -> eq
  | None -> fun a b -> String.equal (sub.An.key a) (sub.An.key b)

let all_entries () = Reg.all () @ Reg.defects ()

(* ------------------------------------------------------------------ *)
(* Round-trip                                                          *)
(* ------------------------------------------------------------------ *)

let check_roundtrip (Reg.Entry e) =
  let sub = e.subject in
  let c = sub.An.codec in
  let eq = entry_equal sub in
  let states = observed ~max_states:400 sub in
  Alcotest.(check bool) (e.name ^ ": walked some states") true (states <> []);
  List.iter
    (fun s ->
      match C.decode c (C.encode c s) with
      | Error err -> Alcotest.failf "%s: decode failed: %s" e.name err
      | Ok s' ->
          if not (eq s s') then
            Alcotest.failf "%s: decode (encode s) <> s (key %s)" e.name
              (sub.An.key s))
    states

let roundtrip_all () = List.iter check_roundtrip (all_entries ())

(* QCheck wrapper: the walk depth (hence the sampled subgraph prefix) is
   the generated input; every observed state along it must round-trip. *)
let prop_roundtrip =
  QCheck.Test.make ~count:8 ~name:"round-trip over sampled reachable prefixes"
    QCheck.(int_range 20 300)
    (fun n ->
      List.iter
        (fun (Reg.Entry e) ->
          let sub = e.subject in
          let c = sub.An.codec in
          let eq = entry_equal sub in
          List.iter
            (fun s ->
              match C.decode c (C.encode c s) with
              | Ok s' when eq s s' -> ()
              | Ok _ -> QCheck.Test.fail_reportf "%s: mis-decode" e.name
              | Error err ->
                  QCheck.Test.fail_reportf "%s: decode error %s" e.name err)
            (observed ~max_states:n sub))
        (all_entries ());
      true)

(* ------------------------------------------------------------------ *)
(* Injectivity / canonicality and the fingerprint differential         *)
(* ------------------------------------------------------------------ *)

(* Over the observed states: the encoding must induce exactly the dedup
   classes the (audited-injective) string key induces — same number of
   distinct values, consistently mapped in both directions — and the
   flat-fed fingerprint must agree with that partition.  This is the sweep
   the seeded non-canonical encoder below must fail. *)
let partition_agrees ~name ~key ~image states =
  let by_key : (string, string) Hashtbl.t = Hashtbl.create 256 in
  let by_img : (string, string) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let k = key s and i = image s in
      (match Hashtbl.find_opt by_key k with
      | Some i' when i' <> i ->
          Alcotest.failf "%s: one key, two encodings (key %s)" name k
      | Some _ -> ()
      | None -> Hashtbl.add by_key k i);
      match Hashtbl.find_opt by_img i with
      | Some k' when k' <> k ->
          Alcotest.failf "%s: encoding collision between keys %s and %s" name
            k' k
      | Some _ -> ()
      | None -> Hashtbl.add by_img i k)
    states;
  Alcotest.(check int)
    (name ^ ": distinct encodings = distinct keys")
    (Hashtbl.length by_key) (Hashtbl.length by_img)

let check_injectivity (Reg.Entry e) =
  let sub = e.subject in
  let c = sub.An.codec in
  let states = observed ~max_states:600 sub in
  partition_agrees ~name:(e.name ^ "/bytes") ~key:sub.An.key
    ~image:(fun s -> C.to_hex (C.encode c s))
    states;
  let scratch = C.scratch () in
  partition_agrees ~name:(e.name ^ "/fingerprint") ~key:sub.An.key
    ~image:(fun s -> Check.Fingerprint.to_hex (C.fingerprint c scratch s))
    states

let injectivity_all () = List.iter check_injectivity (all_entries ())

(* The explorer's access pattern: every observed state, then each of its
   successors, so the successors' components are physically shared with
   the state just written. *)
let successor_walk (type s a) ~max_states (sub : (s, a) An.subject) : s list =
  let (module A : Ioa.Automaton.GENERATIVE
        with type state = s
         and type action = a) =
    sub.An.automaton
  in
  let acc = ref [] in
  let _ =
    Check.Explorer.run sub.automaton ~key:sub.key ~invariants:[] ~seed:[| 0 |]
      ~max_states ~jobs:1 ~state_rng:true
      ~observe:(fun o ->
        let s = o.Check.Explorer.obs_state in
        acc := s :: !acc;
        List.iter (fun a -> acc := A.step s a :: !acc) o.obs_enabled)
      ~init:sub.init ()
  in
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Golden digests                                                      *)
(* ------------------------------------------------------------------ *)

(* Byte-level pin: the fingerprint of each entry's encoded initial state.
   Any unversioned change to the wire layout — field order, varint width,
   framing — lands here first; bump [~version] and regenerate instead of
   editing silently.  (Regenerated once when the fingerprint mixer gained
   its per-word shift-xor — a digest-algorithm change, not a layout one:
   the encodings themselves are byte-identical.) *)
let golden =
  [
    ("vs-spec", "ae4c61572e32f2d1b364984908037de1");
    ("dvs-spec", "2c22e452ec575c192ff10efec778e96a");
    ("dvs-impl", "76c5c319df90fa7a71c545a0a1348fc3");
    ("to-spec", "489c3fe8c4975ec7870d0352d8dd97d5");
    ("to-impl", "2006df8a2f34dd49290dcbee21ac1711");
    ("vs-stack", "d6f05118b38887d07301201b026d930c");
    ("vs-stack-faulty", "d684d735c9f33dae775e3a5916615963");
    ("full-stack", "bea50210d99947c273f85849ae5fd990");
    ("defect-no-dedup", "83fe641594ffbfe3d1e3a76c9d3ac7ba");
    ("defect-no-retransmit", "aac4fdf08be84b8a3981e29e5f370250");
    ("defect-no-dedup-invariant", "2f8f515f2057a1b0ad7935ad79920ca8");
  ]

(* A second pin per entry: the fingerprint of the concatenated frames of
   [successor_walk ~max_states:2000].  A description with a wrong field
   order or combinator can write the initial state's bytes and still go
   wrong once the fields differ; the walk reaches those states. *)
let golden_prefix =
  [
    ("vs-spec", "08fe88ca6569551c45951438edfc5af9");
    ("dvs-spec", "27fcf33495ae34dfda0869112b07d430");
    ("dvs-impl", "8062d0c19e68bc32511d352378cc69c3");
    ("to-spec", "88442b52f6ee94c45452ef0137edc72c");
    ("to-impl", "aafc823b31d33ae19ed9db3cec0d23f2");
    ("vs-stack", "582ff7cb17677063a0f118dce3d72690");
    ("vs-stack-faulty", "830a2d0d346c81c4ceceaad867615f30");
    ("full-stack", "fda5a7d1c69fcb59db97142d72cd7290");
    ("defect-no-dedup", "5b548000ac5f3d23b3d4b23f51e41d88");
    ("defect-no-retransmit", "e6e1ae4ff999b67f04aecab85c935945");
    ("defect-no-dedup-invariant", "97ec878e5df4cced22f34e20f0d3c3b0");
  ]

let golden_digests () =
  let pinned table what name got =
    match List.assoc_opt name table with
    | None -> Alcotest.failf "no %s pinned for %s" what name
    | Some want -> Alcotest.(check string) (name ^ ": " ^ what) want got
  in
  List.iter
    (fun (Reg.Entry e) ->
      let c = e.subject.An.codec in
      let digest s = Check.Fingerprint.(to_hex (of_string s)) in
      pinned golden "golden digest" e.name
        (digest (Bytes.to_string (C.encode c e.subject.An.init)));
      let frames = Buffer.create 65536 in
      List.iter
        (fun s -> Buffer.add_bytes frames (C.encode c s))
        (successor_walk ~max_states:2000 e.subject);
      pinned golden_prefix "reachable-prefix digest" e.name
        (digest (Buffer.contents frames)))
    (all_entries ())

(* ------------------------------------------------------------------ *)
(* Framing: version, truncation, mutation fuzz                         *)
(* ------------------------------------------------------------------ *)

let expect_error ~what name = function
  | Ok _ -> Alcotest.failf "%s: %s decoded successfully" name what
  | Error _ -> ()

let check_version (Reg.Entry e) =
  let sub = e.subject in
  let c = sub.An.codec in
  let bumped = C.with_version (C.version c + 1) c in
  (match C.decode c (C.encode bumped sub.An.init) with
  | Ok _ -> Alcotest.failf "%s: wrong version decoded" e.name
  | Error msg ->
      Alcotest.(check bool)
        (e.name ^ ": error names the version mismatch")
        true
        (String.length msg > 0));
  (* same payload under the matching version still decodes *)
  match C.decode bumped (C.encode bumped sub.An.init) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "%s: bumped self-decode failed: %s" e.name msg

let version_all () = List.iter check_version (all_entries ())

let check_truncation (Reg.Entry e) =
  let sub = e.subject in
  let c = sub.An.codec in
  let b = C.encode c sub.An.init in
  let n = Bytes.length b in
  for len = 0 to n - 1 do
    expect_error ~what:(Printf.sprintf "truncation to %d/%d bytes" len n)
      e.name
      (C.decode c (Bytes.sub b 0 len))
  done

let truncation_all () = List.iter check_truncation (all_entries ())

(* Every single-byte corruption of a valid frame must be rejected: the
   magic/length checks catch structural damage and the 128-bit checksum
   catches everything else (a silent mis-decode needs a fingerprint
   collision).  The XOR mask cycles deterministically so the sweep covers
   varied corruption patterns without RNG plumbing. *)
let check_mutation (Reg.Entry e) =
  let sub = e.subject in
  let c = sub.An.codec in
  let states = observed ~max_states:3 sub in
  List.iter
    (fun s ->
      let b = C.encode c s in
      let n = Bytes.length b in
      for pos = 0 to n - 1 do
        let mask = 1 + ((pos * 37) mod 255) in
        let orig = Char.code (Bytes.get b pos) in
        Bytes.set b pos (Char.chr (orig lxor mask));
        expect_error ~what:(Printf.sprintf "byte %d xor %#x" pos mask) e.name
          (C.decode c b);
        Bytes.set b pos (Char.chr orig)
      done;
      (* restored frame still decodes *)
      match C.decode c b with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: restored frame failed: %s" e.name msg)
    states

let mutation_all () = List.iter check_mutation (all_entries ())

(* Appending trailing garbage must also be rejected (exact-consumption /
   length discipline), not silently ignored. *)
let check_trailing (Reg.Entry e) =
  let sub = e.subject in
  let c = sub.An.codec in
  let b = C.encode c sub.An.init in
  let b' = Bytes.cat b (Bytes.of_string "\x00") in
  expect_error ~what:"frame with trailing garbage" e.name (C.decode c b')

let trailing_all () = List.iter check_trailing (all_entries ())

(* ------------------------------------------------------------------ *)
(* Seeded codec defect: field aliasing in the vs-spec encoder          *)
(* ------------------------------------------------------------------ *)

module Msg = Prelude.Msg_intf.String_msg
module Vsg = Vs.Vs_gen.Make (Msg)

let vs_cfg () =
  {
    (Vsg.default_config ~payloads:[ "a" ] ~universe:2) with
    Vsg.max_views = 2;
    max_sends = 2;
    view_proposals = `All_subsets;
  }

let vs_subject () =
  let cfg = vs_cfg () in
  ( Vsg.generative_pure cfg,
    Vsg.Spec.initial (Prelude.Proc.Set.universe 2),
    Vsg.Spec.state_key )

(* The defect: the encoder writes [next] into the [next_safe] slot too,
   so states differing only in [next_safe] collide.  Decode is the honest
   one — this is precisely a non-canonical/non-injective encoder, the
   failure class the injectivity sweep and the dedup differential exist
   to catch. *)
let defective_codec () : Vsg.Spec.state C.t =
  let good = Vsg.Spec.codec_state C.string in
  let wr b (s : Vsg.Spec.state) =
    good.C.wr b { s with Vsg.Spec.next_safe = s.Vsg.Spec.next }
  in
  C.make ~id:"vs-spec" ~version:1 { C.wr; rd = good.C.rd }

let observed_vs () =
  let automaton, init, key = vs_subject () in
  let acc = ref [] in
  let _ =
    Check.Explorer.run automaton ~key ~invariants:[] ~seed:[| 0 |]
      ~max_states:2_500 ~jobs:1 ~state_rng:true
      ~observe:(fun o -> acc := o.Check.Explorer.obs_state :: !acc)
      ~init ()
  in
  (!acc, key)

let seeded_defect_injectivity () =
  let states, key = observed_vs () in
  let c = defective_codec () in
  (* the sweep must find a collision: two distinct keys, same bytes *)
  let by_img : (string, string) Hashtbl.t = Hashtbl.create 256 in
  let caught = ref false in
  List.iter
    (fun s ->
      let i = C.to_hex (C.encode c s) and k = key s in
      match Hashtbl.find_opt by_img i with
      | Some k' when k' <> k -> caught := true
      | Some _ -> ()
      | None -> Hashtbl.add by_img i k)
    states;
  Alcotest.(check bool)
    "aliasing encoder caught by the injectivity sweep" true !caught

let seeded_defect_differential () =
  let automaton, init, key = vs_subject () in
  let run ?codec () =
    let out =
      Check.Explorer.run automaton ~key ~invariants:[] ~seed:[| 0 |]
        ~max_states:10_000 ~jobs:1 ~state_rng:true ?codec ~init ()
    in
    let st = out.Check.Explorer.stats in
    Alcotest.(check bool) "exhausted" false st.Check.Explorer.truncated;
    st.Check.Explorer.states
  in
  let string_path = run () in
  let good = run ~codec:(C.make ~id:"vs-spec" ~version:1 (Vsg.Spec.codec_state C.string)) () in
  let bad = run ~codec:(defective_codec ()) () in
  (* vs-spec's generator is deterministic, so the string-keyed and
     codec-fed graphs are the same graph; the honest codec must dedup it
     identically and the aliasing codec must conflate states. *)
  Alcotest.(check int) "honest codec dedups like the string path"
    string_path good;
  Alcotest.(check bool)
    (Printf.sprintf "aliasing codec conflates states (%d < %d)" bad
       string_path)
    true (bad < string_path)

(* What [Analyzer.analyze] runs on every registry entry: dedup on the
   codec, with the key rendered once per expanded state only to seed its
   RNG.  Since the codec partitions states exactly as the key does, that
   must explore the very graph of the key-only run — RNG-gated entries
   included — while a counting wrapper sees one key render per observed
   expansion instead of one per admitted successor. *)
let codec_dedup_matches_key_only () =
  List.iter
    (fun (Reg.Entry e) ->
      let sub = e.subject in
      let run ?codec () =
        let calls = ref 0 and expansions = ref 0 in
        let key s =
          incr calls;
          sub.An.key s
        in
        let out =
          Check.Explorer.run sub.An.automaton ~key ?codec ~invariants:[]
            ~seed:[| 0 |] ~max_states:20_000 ~jobs:1 ~state_rng:true
            ~observe:(fun _ -> incr expansions)
            ~init:sub.An.init ()
        in
        (out.Check.Explorer.stats, !calls, !expansions)
      in
      let ks, key_calls, _ = run () in
      let cs, seed_calls, expansions = run ~codec:sub.An.codec () in
      let field what f =
        Alcotest.(check int) (Printf.sprintf "%s: %s" e.name what) (f ks) (f cs)
      in
      field "states" (fun s -> s.Check.Explorer.states);
      field "transitions" (fun s -> s.Check.Explorer.transitions);
      field "depth" (fun s -> s.Check.Explorer.depth);
      Alcotest.(check bool)
        (e.name ^ ": truncation")
        ks.Check.Explorer.truncated cs.Check.Explorer.truncated;
      Alcotest.(check bool)
        (Printf.sprintf
           "%s: key-only run renders the key per successor (%d calls, %d \
            transitions)"
           e.name key_calls ks.Check.Explorer.transitions)
        true
        (key_calls > ks.Check.Explorer.transitions);
      Alcotest.(check int)
        (e.name ^ ": codec run renders the key once per expansion")
        expansions seed_calls)
    (Reg.all ())

(* ------------------------------------------------------------------ *)
(* Registry-wide mode parity                                           *)
(* ------------------------------------------------------------------ *)

(* `Throughput drops retained states for a fingerprint-only seen-set; on
   the same codec-fed fingerprints both modes must expand exactly the
   same graph.  Verified per entry at jobs:1 and jobs:4.  At jobs:4 both
   modes run on the barrier-free sharded engine, which narrows what is
   comparable:

   - counts: asserted only on runs where both modes exhausted cleanly
     (no violation / step failure) — on a violating or truncated run the
     set of states visited before stopping is scheduling-dependent;
   - depth: exact at jobs:1; at jobs:4 both runs report discovery
     depths, each >= the true BFS eccentricity the jobs:1 deterministic
     run reports;
   - verdict: exactly equal at jobs:1; at jobs:4 the verdict *class* is
     compared on non-truncated runs (which of several violated
     invariants stops the run first is scheduling-dependent), and a
     truncated sharded prefix may stop before the violation the
     deterministic engine finds, so truncated jobs:4 verdicts are not
     compared at all.

   The test demands most of the registry be exhaustible at this bound so
   the count assertions can't silently go vacuous. *)
let mode_parity () =
  let exhausted = ref 0 and total = ref 0 in
  List.iter
    (fun (Reg.Entry e) ->
      incr total;
      let bfs_depth = ref 0 in
      let raw ~jobs ~mode =
        An.explore_raw ~max_states:6_000 ~jobs ~mode e.subject
      in
      List.iter
        (fun jobs ->
          let det = raw ~jobs ~mode:`Deterministic in
          let thr = raw ~jobs ~mode:`Throughput in
          if jobs = 1 then bfs_depth := det.An.raw_depth;
          let clean r =
            r.An.raw_violation = None && not r.An.raw_step_failure
          in
          if jobs = 1 then
            Alcotest.(check bool)
              (Printf.sprintf "%s jobs:%d — identical verdicts" e.name jobs)
              true
              (det.An.raw_violation = thr.An.raw_violation
              && det.An.raw_step_failure = thr.An.raw_step_failure)
          else if not (det.An.raw_truncated || thr.An.raw_truncated) then
            (* Cross-engine: both must fail the same way, but which of
               several violated invariants is hit first is
               scheduling-dependent. *)
            Alcotest.(check bool)
              (Printf.sprintf "%s jobs:%d — same verdict class" e.name jobs)
              true
              (Option.is_some det.An.raw_violation
               = Option.is_some thr.An.raw_violation
              && det.An.raw_step_failure = thr.An.raw_step_failure);
          if
            (not (det.An.raw_truncated || thr.An.raw_truncated))
            && (jobs = 1 || (clean det && clean thr))
          then begin
            if jobs = 1 then incr exhausted;
            Alcotest.(check int)
              (Printf.sprintf "%s jobs:%d — same state count" e.name jobs)
              det.An.raw_states thr.An.raw_states;
            Alcotest.(check int)
              (Printf.sprintf "%s jobs:%d — same transition count" e.name jobs)
              det.An.raw_transitions thr.An.raw_transitions;
            if jobs = 1 then
              Alcotest.(check int)
                (Printf.sprintf "%s jobs:%d — same depth" e.name jobs)
                det.An.raw_depth thr.An.raw_depth
            else
              Alcotest.(check bool)
                (Printf.sprintf
                   "%s jobs:%d — discovery depths bound BFS depth (%d <= %d, \
                    %d)"
                   e.name jobs !bfs_depth det.An.raw_depth thr.An.raw_depth)
                true
                (!bfs_depth <= det.An.raw_depth
                && !bfs_depth <= thr.An.raw_depth)
          end)
        [ 1; 4 ])
    (all_entries ());
  Alcotest.(check bool)
    (Printf.sprintf "most entries exhaustible at this bound (%d/%d)"
       !exhausted !total)
    true
    (!exhausted * 2 >= !total)

(* ------------------------------------------------------------------ *)
(* Corpus wire form                                                    *)
(* ------------------------------------------------------------------ *)

(* Every corpus record now carries the failure state's framed encoding;
   it must decode under its entry's current codec (a layout change that
   breaks stored states must bump the version and regenerate). *)
let corpus_states_decode () =
  match Check.Cex.load ~path:"../corpus/defects.cex.jsonl" with
  | Error e -> Alcotest.failf "corpus load failed: %s" e
  | Ok records ->
      let entries = all_entries () in
      List.iter
        (fun (r : Check.Cex.t) ->
          match r.Check.Cex.state with
          | None ->
              Alcotest.failf "%s: corpus record has no state wire form"
                r.Check.Cex.entry
          | Some hex -> (
              match Reg.find entries r.Check.Cex.entry with
              | None -> Alcotest.failf "unknown entry %s" r.Check.Cex.entry
              | Some (Reg.Entry e) -> (
                  let c = e.subject.An.codec in
                  match C.of_hex hex with
                  | Error err ->
                      Alcotest.failf "%s: bad hex: %s" e.name err
                  | Ok bytes -> (
                      match C.decode c bytes with
                      | Ok _ -> ()
                      | Error err ->
                          Alcotest.failf "%s: stored state does not decode: %s"
                            e.name err))))
        records;
      Alcotest.(check bool) "corpus non-empty" true (records <> [])

(* ------------------------------------------------------------------ *)
(* Segment memo                                                        *)
(* ------------------------------------------------------------------ *)

(* A one-shot frame minus its magic byte, body-length varint and
   checksum: [id · version · body], exactly what a scratch holds after
   [encode_into]. *)
let preimage_of_frame frame =
  let pos = ref 1 in
  let rec varint acc shift =
    let b = Char.code (Bytes.get frame !pos) in
    incr pos;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else varint acc (shift + 7)
  in
  let id_len = varint 0 0 in
  pos := !pos + id_len;
  ignore (varint 0 0);
  let seg_end = !pos in
  let body_len = varint 0 0 in
  let body_pos = !pos in
  Alcotest.(check int) "frame = header · body · checksum"
    (Bytes.length frame) (body_pos + body_len + 16);
  Bytes.sub_string frame 1 (seg_end - 1)
  ^ Bytes.sub_string frame body_pos body_len

let scratch_image c scratch s =
  C.encode_into c scratch s;
  let buf, len = C.scratch_contents scratch in
  Bytes.sub_string buf 0 len

(* The frame [encode] must write, rebuilt from the scratch preimage
   [id · version · body]: magic, the preimage with the body-length
   varint spliced in after the header, and the preimage's digest. *)
let frame_of_preimage ~header_len preimage =
  let body_len = String.length preimage - header_len in
  let varint n =
    let b = Buffer.create 4 in
    let n = ref n in
    while !n land lnot 0x7f <> 0 do
      Buffer.add_char b (Char.chr (0x80 lor (!n land 0x7f)));
      n := !n lsr 7
    done;
    Buffer.add_char b (Char.chr !n);
    Buffer.contents b
  in
  let d = Check.Fingerprint.of_string preimage in
  let digest = Bytes.create 16 in
  Bytes.set_int64_be digest 0 d.Check.Fingerprint.hi;
  Bytes.set_int64_be digest 8 d.Check.Fingerprint.lo;
  String.concat ""
    [
      "\xc5";
      String.sub preimage 0 header_len;
      varint body_len;
      String.sub preimage header_len body_len;
      Bytes.to_string digest;
    ]

(* One-shot [encode] keeps its body buffer between calls: frames of
   growing and shrinking size in a row, a writer that encodes another
   frame while the buffer is in use, and a writer that raises mid-body
   must all leave every frame byte-identical to the framed preimage. *)
let one_shot_frames () =
  let scratch = C.scratch () in
  let check name c s =
    let header = C.make ~id:(C.id c) ~version:(C.version c) C.unit in
    let header_len = String.length (scratch_image header scratch ()) in
    let want = frame_of_preimage ~header_len (scratch_image c scratch s) in
    Alcotest.(check string) name want (Bytes.to_string (C.encode c s))
  in
  let big = C.make ~id:"big" ~version:300 C.(list (pair string int)) in
  let prefix n = List.init n (fun i -> (Printf.sprintf "m%d" i, i - 7)) in
  List.iter
    (fun n -> check (Printf.sprintf "%d entries" n) big (prefix n))
    [ 0; 1; 300; 100_000; 2; 40_000; 0 ];
  let inner = C.make ~id:"inner" ~version:1 C.(list int) in
  let nested =
    C.make ~id:"nested" ~version:1
      C.(
        list
          (via
             ~to_:(fun xs -> Bytes.to_string (C.encode inner xs))
             ~of_:(fun _ -> [])
             string))
  in
  check "encode inside a writer" nested
    [ List.init 500 Fun.id; []; List.init 3 Fun.id ];
  let bytes = C.make ~id:"bytes" ~version:1 C.(list byte) in
  (match C.encode bytes (List.init 1000 (fun i -> i mod 256) @ [ 300 ]) with
  | _ -> Alcotest.fail "an out-of-range byte encoded"
  | exception Invalid_argument _ -> ());
  check "after a raising writer" bytes (List.init 1000 (fun i -> i mod 256));
  check "and a large frame again" big (prefix 50_000)

let stack_entries () =
  List.filter
    (fun (Reg.Entry e) -> List.mem e.name [ "vs-stack"; "vs-stack-faulty" ])
    (Reg.all ())

(* Through one reused, warm scratch every image must equal the one-shot
   [encode] body of the same state. *)
let memo_matches_one_shot () =
  let entries = stack_entries () in
  Alcotest.(check int) "both stack entries present" 2 (List.length entries);
  List.iter
    (fun (Reg.Entry e) ->
      let c = e.subject.An.codec in
      let states = successor_walk ~max_states:1_200 e.subject in
      Alcotest.(check bool)
        (e.name ^ ": at least 1000 states")
        true
        (List.length states >= 1_000);
      let scratch = C.scratch () in
      List.iteri
        (fun i s ->
          let want = preimage_of_frame (C.encode c s) in
          if not (String.equal want (scratch_image c scratch s)) then
            Alcotest.failf "%s: state %d: memoised image differs" e.name i)
        states)
    entries

module Stk = Vs_impl.Stack.Make (Msg)

(* Distinct engine values (by image) from a short vs-stack walk. *)
let distinct_engines n =
  let cfg = Stk.default_config ~payloads:[ "a" ] ~universe:2 in
  let gen = Stk.generative_pure cfg in
  let init = Stk.initial ~universe:2 ~p0:(Prelude.Proc.Set.universe 2) () in
  let ec = C.make ~id:"engine" ~version:1 (Stk.E.codec_state C.string) in
  let seen = Hashtbl.create 64 and acc = ref [] in
  let _ =
    Check.Explorer.run gen ~key:Stk.state_key ~invariants:[] ~seed:[| 0 |]
      ~max_states:500 ~jobs:1 ~state_rng:true
      ~observe:(fun o ->
        Prelude.Proc.Map.iter
          (fun _ e ->
            let img = C.to_hex (C.encode ec e) in
            if not (Hashtbl.mem seen img) then begin
              Hashtbl.add seen img ();
              acc := e :: !acc
            end)
          o.Check.Explorer.obs_state.Stk.engines)
      ~init ()
  in
  let engines = List.rev !acc in
  Alcotest.(check bool)
    (Printf.sprintf "walk found %d distinct engines" n)
    true
    (List.length engines >= n);
  List.filteri (fun i _ -> i < n) engines

(* A 4-way site fed more distinct engines than it has ways: every image
   stays exact, the LRU re-runs the writer exactly on misses, and the
   four most recent values stay resident. *)
let memo_eviction () =
  let engines = distinct_engines 6 in
  let writes = ref 0 in
  let inner = Stk.E.codec_state C.string in
  let counted = { inner with C.wr = (fun w e -> incr writes; inner.C.wr w e) } in
  let plain = C.make ~id:"engine" ~version:1 inner in
  let memoised = C.make ~id:"engine" ~version:1 (C.memo counted) in
  let scratch = C.scratch () in
  let write_all es =
    List.iter
      (fun e ->
        if
          not
            (String.equal
               (preimage_of_frame (C.encode plain e))
               (scratch_image memoised scratch e))
        then Alcotest.fail "evicting memo wrote a wrong image")
      es
  in
  let cycle = List.concat [ engines; engines; engines ] in
  write_all cycle;
  Alcotest.(check int) "cyclic access over 6 values, 4 ways: all misses"
    (List.length cycle) !writes;
  let last4 = List.filteri (fun i _ -> i >= 2) engines in
  writes := 0;
  write_all (List.concat [ List.rev last4; last4; last4 ]);
  Alcotest.(check int) "the four most recent values stay resident" 0 !writes;
  write_all [ List.hd engines ];
  Alcotest.(check int) "an evicted value is rewritten" 1 !writes;
  (* one-shot encode bypasses the memo: the writer runs every time *)
  writes := 0;
  let e = List.hd engines in
  ignore (C.encode memoised e);
  ignore (C.encode memoised e);
  Alcotest.(check int) "one-shot encode never consults the memo" 2 !writes

(* Two domains encode the same states at once, each through its own
   scratch; the memo lives in the scratch, so both must reproduce the
   sequential images. *)
let memo_two_domains () =
  match
    List.find_opt
      (fun (Reg.Entry e) -> e.name = "vs-stack-faulty")
      (stack_entries ())
  with
  | None -> Alcotest.fail "vs-stack-faulty missing from the registry"
  | Some (Reg.Entry e) ->
      let c = e.subject.An.codec in
      let states = successor_walk ~max_states:600 e.subject in
      let want = List.map (fun s -> preimage_of_frame (C.encode c s)) states in
      let encode_all () =
        let scratch = C.scratch () in
        List.map (scratch_image c scratch) states
      in
      let ds = List.init 2 (fun _ -> Domain.spawn encode_all) in
      List.iteri
        (fun d dom ->
          let got = Domain.join dom in
          Alcotest.(check bool)
            (Printf.sprintf "domain %d matches the sequential images" d)
            true
            (List.equal String.equal want got))
        ds

(* ------------------------------------------------------------------ *)
(* Record-derived equality and a seeded description defect             *)
(* ------------------------------------------------------------------ *)

(* Every entry's equality must hold exactly when the codec images are
   equal, over every pair of observed states; where the entry declares a
   symmetry, also between each state and its image under the
   transposition 0↔1.  Each half must see some unequal pair, or it is
   vacuous. *)
let equality_is_image_equality () =
  let swap = function 0 -> 1 | 1 -> 0 | p -> p in
  List.iter
    (fun (Reg.Entry e) ->
      let sub = e.subject in
      let eq = Option.get sub.An.equal_state in
      let image s = Bytes.to_string (C.encode sub.An.codec s) in
      let states = Array.of_list (observed ~max_states:300 sub) in
      let images = Array.map image states in
      let check what a ia b ib =
        let same = eq a b in
        if same <> String.equal ia ib then
          Alcotest.failf "%s: %s: equal_state %b but images %s" e.name what same
            (if String.equal ia ib then "equal" else "differ");
        not same
      in
      let pair_differs = ref false in
      Array.iteri
        (fun i a ->
          for j = i to Array.length states - 1 do
            if check "pair" a images.(i) states.(j) images.(j) then pair_differs := true
          done)
        states;
      Alcotest.(check bool) (e.name ^ ": some pair of states differs") true !pair_differs;
      Option.iter
        (fun spec ->
          let moved =
            Array.fold_left
              (fun moved a ->
                let swapped = spec.Analysis.Symmetry.permute swap a in
                check "transposition" a (image a) swapped (image swapped) || moved)
              false states
          in
          Alcotest.(check bool) (e.name ^ ": some state differs from its transposition") true moved)
        sub.An.symmetry)
    (all_entries ())

(* Seeded defect: a copy of the engine description that leaves
   [stable_upto] out, its constructor filling the field from a constant.
   The derived codec then never writes the field, so the vs-stack golden
   digest moves, and decoding a state that learned a stable bound loses
   it — the round-trip names the field. *)
let defective_engine : (string, Stk.E.state) Check.Record.t =
  let open Check.Record in
  let open Prelude in
  let mp_equal (m, p) (m', p') = String.equal m m' && Proc.equal p p' in
  let gm_int get = field "" get (Fixed C.(gid_map int)) (Gid.Map.equal Int.equal) in
  let pg_int get = field "" get (Fixed C.(pg_map int)) (Pg_map.equal Int.equal) in
  let gm_seq get =
    field "" get (Payload (fun m -> C.(gid_map (seqs m)))) (Gid.Map.equal (Seqs.equal String.equal))
  in
  make
    (fun me cur views_seen outq fwd_log seq_log fwd_seen bcast_sent acked_by stable_sent
         rcv_buf next_deliver next_safe acked_upto variant drop_stale ->
      { Stk.E.me; cur; views_seen; outq; fwd_log; seq_log; fwd_seen; bcast_sent; acked_by;
        stable_sent; rcv_buf; next_deliver; next_safe; acked_upto;
        stable_upto = Gid.Map.empty; variant; drop_stale })
    [
      field "me" (fun st -> st.Stk.E.me) (Fixed C.proc) Proc.equal;
      field "cur" (fun st -> st.Stk.E.cur) (Fixed C.(option view)) (Option.equal View.equal);
      field "views_seen" (fun st -> st.Stk.E.views_seen) (Fixed C.(gid_map view))
        (Gid.Map.equal View.equal);
      gm_seq (fun st -> st.Stk.E.outq);
      gm_seq (fun st -> st.Stk.E.fwd_log);
      field "seq_log" (fun st -> st.Stk.E.seq_log)
        (Payload (fun m -> C.(gid_map (seqs (pair m proc)))))
        (Gid.Map.equal (Seqs.equal mp_equal));
      pg_int (fun st -> st.Stk.E.fwd_seen);
      pg_int (fun st -> st.Stk.E.bcast_sent);
      pg_int (fun st -> st.Stk.E.acked_by);
      pg_int (fun st -> st.Stk.E.stable_sent);
      field "rcv_buf" (fun st -> st.Stk.E.rcv_buf) (Payload (fun m -> C.(pg_map (pair m proc))))
        (Pg_map.equal mp_equal);
      gm_int (fun st -> st.Stk.E.next_deliver);
      gm_int (fun st -> st.Stk.E.next_safe);
      gm_int (fun st -> st.Stk.E.acked_upto);
      field "variant" (fun st -> st.Stk.E.variant)
        (Fixed (C.via C.byte ~to_:(function Stk.E.Faithful -> 0 | No_dedup -> 1 | No_retransmit -> 2)
           ~of_:(fun _ -> Stk.E.Faithful)))
        ( = );
      field "drop_stale" (fun st -> st.Stk.E.drop_stale) (Fixed C.bool) Bool.equal;
    ]

let stack_with engine : Stk.state C.f =
  let open Check.Record in
  let open Prelude in
  codec
    (make
       (fun net daemon engines p0 -> { Stk.net; daemon; engines; p0 })
       [
         field "net" (fun s -> s.Stk.net) (Payload Stk.N.codec_state) Stk.N.equal;
         field "daemon" (fun s -> s.Stk.daemon) (Fixed Vs_impl.Daemon.codec) Vs_impl.Daemon.equal;
         field "engines" (fun s -> s.Stk.engines)
           (Payload (fun m -> C.proc_map (codec engine m)))
           (Proc.Map.equal Stk.E.equal);
         field "p0" (fun (s : Stk.state) -> s.p0) (Fixed C.proc_set) Proc.Set.equal;
       ])
    C.string

let seeded_field_defect () =
  let cfg =
    { (Stk.default_config ~payloads:[ "a" ] ~universe:2) with Stk.max_views = 2; max_sends = 1 }
  in
  let init = Stk.initial ~universe:2 ~p0:(Prelude.Proc.Set.universe 2) () in
  let digest f =
    Check.Fingerprint.to_hex
      (Check.Fingerprint.of_string
         (Bytes.to_string (C.encode (C.make ~id:"vs-stack" ~version:1 f) init)))
  in
  let want = List.assoc "vs-stack" golden in
  Alcotest.(check string) "the honest description reproduces the pin" want
    (digest (stack_with Stk.E.record));
  let bad = stack_with defective_engine in
  Alcotest.(check bool) "the defect moves the golden digest" true (digest bad <> want);
  (* random walks reach the acknowledged, stable prefixes a shallow
     breadth-first prefix does not *)
  let (module A) = Stk.generative_pure cfg in
  let rng = Random.State.make [| 7 |] in
  let rec walk s n acc =
    match A.candidates rng s with
    | [] -> acc
    | _ when n = 0 -> acc
    | cs ->
        let s = A.step s (List.nth cs (Random.State.int rng (List.length cs))) in
        walk s (n - 1) (s :: acc)
  in
  let states = List.concat (List.init 20 (fun _ -> walk init 80 [])) in
  let framed = C.make ~id:"vs-stack" ~version:1 bad in
  let lost =
    List.concat_map
      (fun s ->
        match C.decode framed (C.encode framed s) with
        | Error err -> Alcotest.failf "defective frame failed to decode: %s" err
        | Ok s' ->
            Prelude.Proc.Map.fold
              (fun p e acc ->
                match Check.Record.diff Stk.E.record e (Prelude.Proc.Map.find p s'.Stk.engines) with
                | Some name -> name :: acc
                | None -> acc)
              s.Stk.engines [])
      states
  in
  Alcotest.(check bool) "the round-trip over walk states fails" true (lost <> []);
  Alcotest.(check (list string)) "and names only the left-out field" [ "stable_upto" ]
    (List.sort_uniq compare lost)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "codec"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "decode (encode s) = s, every entry" `Quick
            roundtrip_all;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
      ( "canonicality",
        [
          Alcotest.test_case
            "encodings and flat fingerprints partition like the string key"
            `Quick injectivity_all;
          Alcotest.test_case "golden digest per entry" `Quick golden_digests;
          Alcotest.test_case "corpus wire forms decode" `Quick
            corpus_states_decode;
          Alcotest.test_case
            "codec dedup with key seeds = key-only graph, every entry" `Quick
            codec_dedup_matches_key_only;
        ] );
      ( "framing",
        [
          Alcotest.test_case "wrong version rejected" `Quick version_all;
          Alcotest.test_case "every truncation rejected" `Quick truncation_all;
          Alcotest.test_case "every single-byte mutation rejected" `Quick
            mutation_all;
          Alcotest.test_case "trailing garbage rejected" `Quick trailing_all;
          Alcotest.test_case "one-shot frames = framed scratch preimage" `Quick
            one_shot_frames;
        ] );
      ( "seeded-defect",
        [
          Alcotest.test_case "aliasing encoder fails the injectivity sweep"
            `Quick seeded_defect_injectivity;
          Alcotest.test_case "aliasing encoder fails the dedup differential"
            `Quick seeded_defect_differential;
          Alcotest.test_case
            "a field left out of a description fails round-trip and digest"
            `Quick seeded_field_defect;
        ] );
      ( "record",
        [
          Alcotest.test_case "stack equality = codec-image equality" `Quick
            equality_is_image_equality;
        ] );
      ( "memo",
        [
          Alcotest.test_case "warm scratch images = one-shot bodies" `Quick
            memo_matches_one_shot;
          Alcotest.test_case "eviction past the ways stays exact" `Quick
            memo_eviction;
          Alcotest.test_case "two domains, one scratch each" `Quick
            memo_two_domains;
        ] );
      ( "parity",
        [
          Alcotest.test_case
            "throughput = deterministic, jobs 1 and 4, all entries" `Slow
            mode_parity;
        ] );
    ]
