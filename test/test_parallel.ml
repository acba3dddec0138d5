(* Tests for the parallel exploration core (Check.Explorer ~jobs) and the
   fingerprinted dedup (Check.Fingerprint).

   - Parity: for every registry entry, the analysis at jobs:1 (the
     sequential engine) and jobs:4 (the sharded engine, deterministic
     mode with the key audit) under one [max_states] bound agree — the
     per-state RNG discipline makes the explored graph independent of
     scheduling, so exhausted entries match exactly and truncated ones on
     the atomic state count and the finding kinds.
   - Defect detection survives parallelism: the seeded No_dedup engine
     variant is still caught by the per-transition refinement check under
     jobs:4.
   - Fingerprints: digests are chunking-independent, a known key string
     pins the digest (any algorithm change must be deliberate), the
     one-shot digest allocates only its result, and across a vs-stack
     exploration fingerprint equality coincides with key equality
     (collision audit). *)

open Prelude
module Fp = Check.Fingerprint
module Stk = Vs_impl.Stack.Make (Msg_intf.String_msg)
module Ref_ = Vs_impl.Stack_refinement.Make (Msg_intf.String_msg)

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let known_key = "net||daemon#p0:engine|p0{p0,p1}"

(* Pins the digest algorithm: lane constants, word chunking, length mix and
   finalizer.  If this changes, per-state RNG seeds — and with them every
   gated candidate set — change too. *)
let test_pinned_digest () =
  Alcotest.(check string)
    "digest of known key" "09e7ee0b947fb0c066136b75a915864e"
    (Fp.to_hex (Fp.of_string known_key))

let test_incremental_matches_whole () =
  let prop (s, cuts) =
    let c = Fp.create () in
    let n = String.length s in
    let b = Bytes.of_string s in
    (* chunks alternate between the string and the bytes feeders *)
    let feed k i len =
      if k mod 2 = 0 then Fp.feed c (String.sub s i len)
      else Fp.feed_bytes c b ~pos:i ~len
    in
    let rec go k i = function
      | [] -> feed k i (n - i)
      | cut :: rest ->
          let cut = i + (cut mod (n - i + 1)) in
          feed k i (cut - i);
          go (k + 1) cut rest
    in
    go 0 0 cuts;
    Fp.equal (Fp.finish c) (Fp.of_string s)
  in
  QCheck.Test.make ~name:"incremental digest is chunking-independent"
    ~count:500
    QCheck.(pair string (small_list small_nat))
    prop

(* The one-shot digest keeps its lanes unboxed: per call it allocates
   only the result (a two-field record and its two boxed lanes, 9 words),
   however long the input. *)
let test_one_shot_digest_allocates_only_result () =
  let b = Bytes.init 203 (fun i -> Char.chr (i * 7 land 0xff)) in
  ignore (Fp.of_bytes b ~pos:0 ~len:203);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (Sys.opaque_identity (Fp.of_bytes b ~pos:0 ~len:203))
  done;
  let per_call = (Gc.minor_words () -. w0) /. 1_000. in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per digest (at most 9)" per_call)
    true (per_call <= 9.)

let test_distinct_strings_distinct_digests () =
  QCheck.Test.make ~name:"distinct strings digest distinctly" ~count:500
    QCheck.(pair string string)
    (fun (a, b) ->
      QCheck.assume (a <> b);
      not (Fp.equal (Fp.of_string a) (Fp.of_string b)))

(* Regression for a collision class the original mixer missed: moving a
   byte value between the MSBs of two words a multiple of 8 apart
   cancelled exactly on the additive lane (mult2^8 = 1 mod 2^7) and with
   probability ~2^-7 on the xor lane.  A real vs-stack-faulty run hit it
   — two states differing in the net's duplicated-budget counter and one
   engine's stable_sent key shared a digest, which surfaced as a
   scheduling-dependent transition count under the sharded engine.  The
   sweep plants a single byte at the top of word [i] vs word [j] across
   many (i, j, filler) combinations; every pair must digest apart. *)
let test_msb_transposition_resists () =
  let mk ~words ~at ~v filler =
    let b = Bytes.make (words * 8) filler in
    Bytes.set b ((at * 8) + 7) (Char.chr v);
    Bytes.to_string b
  in
  let checked = ref 0 in
  for words = 2 to 24 do
    List.iter
      (fun filler ->
        List.iter
          (fun v ->
            for i = 0 to words - 2 do
              for j = i + 1 to words - 1 do
                let a = mk ~words ~at:i ~v filler
                and b = mk ~words ~at:j ~v filler in
                (* v = filler plants the filler byte: a and b coincide *)
                if a <> b then incr checked;
                if a <> b && Fp.equal (Fp.of_string a) (Fp.of_string b) then
                  Alcotest.failf
                    "MSB transposition collides: %d words, byte %#x moved \
                     from word %d to %d (filler %#x)"
                    words v i j (Char.code filler)
              done
            done)
          [ 1; 2; 0x80; 0xff ])
      [ '\000'; '\002' ]
  done;
  Alcotest.(check bool) "swept some pairs" true (!checked > 10_000)

(* Collision audit over a real exploration: every expanded vs-stack state's
   key must round-trip — fingerprint equality coincides with key equality —
   and the explorer's own [check_key] audit must stay silent. *)
let test_fingerprint_injective_vs_stack () =
  let cfg =
    {
      (Stk.default_config ~payloads:[ "a" ] ~universe:2) with
      Stk.max_views = 2;
      max_sends = 1;
    }
  in
  let gen = Stk.generative_pure cfg in
  let seen : (string, string) Hashtbl.t = Hashtbl.create 4096 in
  let clashes = ref 0 in
  let observe o =
    let k = Stk.state_key o.Check.Explorer.obs_state in
    let h = Fp.to_hex (Fp.of_string k) in
    match Hashtbl.find_opt seen h with
    | Some k' -> if k' <> k then incr clashes
    | None -> Hashtbl.add seen h k
  in
  let outcome =
    Check.Explorer.run gen ~key:Stk.state_key ~invariants:[] ~state_rng:true
      ~max_states:200_000 ~max_depth:12 ~check_key:Stk.equal_state ~observe
      ~init:(Stk.initial ~universe:2 ~p0:(Proc.Set.universe 2) ())
      ()
  in
  Alcotest.(check int) "no fingerprint collisions" 0 !clashes;
  (match outcome.Check.Explorer.key_clash with
  | None -> ()
  | Some _ -> Alcotest.fail "explorer reported a dedup clash");
  Alcotest.(check bool) "exploration is non-trivial" true
    (outcome.Check.Explorer.stats.Check.Explorer.states > 5_000)

(* ------------------------------------------------------------------ *)
(* Parallel/sequential parity                                          *)
(* ------------------------------------------------------------------ *)

(* A [max_states] cut admits whichever states the sharded scheduler
   reaches first, so only what the atomic reservation guarantees — the
   state count — and the finding kinds are compared on truncated entries;
   entries jobs:1 exhausts must match exactly.  The sharded engine reports
   discovery depths, which bound the BFS depth from above. *)
let parity_max_states = 20_000

let test_registry_parity () =
  let exhausted = ref 0 in
  List.iter
    (fun (Analysis.Registry.Entry e) ->
      let run jobs =
        Analysis.Analyzer.analyze ~name:e.name ~max_states:parity_max_states
          ~jobs e.subject
      in
      let r1 = run 1 and r4 = run 4 in
      let kinds (r : Analysis.Findings.report) =
        List.sort compare
          (List.map Analysis.Findings.kind r.Analysis.Findings.findings)
      in
      Alcotest.(check int)
        (e.name ^ ": states")
        r1.Analysis.Findings.states r4.Analysis.Findings.states;
      Alcotest.(check bool)
        (e.name ^ ": truncated")
        r1.Analysis.Findings.truncated r4.Analysis.Findings.truncated;
      Alcotest.(check (list string))
        (e.name ^ ": finding kinds")
        (kinds r1) (kinds r4);
      if not r1.Analysis.Findings.truncated then begin
        incr exhausted;
        Alcotest.(check int)
          (e.name ^ ": transitions")
          r1.Analysis.Findings.transitions r4.Analysis.Findings.transitions
      end;
      Alcotest.(check bool)
        (Printf.sprintf "%s: BFS depth %d <= discovery depth %d" e.name
           r1.Analysis.Findings.depth r4.Analysis.Findings.depth)
        true
        (r1.Analysis.Findings.depth <= r4.Analysis.Findings.depth))
    (Analysis.Registry.all ());
  Alcotest.(check bool) "some entry exhausted" true (!exhausted > 0)

(* ------------------------------------------------------------------ *)
(* Defects still caught under parallelism                              *)
(* ------------------------------------------------------------------ *)

let spec_automaton =
  (module Ref_.Spec : Ioa.Automaton.S
    with type state = Ref_.Spec.state
     and type action = Ref_.Spec.action)

let test_no_dedup_caught_parallel () =
  let cfg =
    {
      (Stk.default_config ~payloads:[ "a" ] ~universe:2) with
      Stk.max_views = 0;
      max_sends = 1;
    }
  in
  let gen = Stk.generative_pure cfg in
  let init =
    Stk.initial ~variant:Stk.E.No_dedup
      ~faults:(Vs_impl.Fault.adversarial ())
      ~universe:2 ~p0:(Proc.Set.universe 2) ()
  in
  let r = Ref_.refinement () in
  let check_step step =
    match Ioa.Refinement.check_step spec_automaton r 0 step with
    | Ok () -> Ok ()
    | Error f -> Error (Format.asprintf "%a" Ioa.Refinement.pp_failure f)
  in
  let outcome =
    Check.Explorer.run gen ~key:Stk.state_key ~invariants:[] ~jobs:4
      ~check_step ~check_key:Stk.equal_state ~max_states:200_000 ~init ()
  in
  match outcome.Check.Explorer.step_failure with
  | Some _ -> ()
  | None ->
      Alcotest.fail
        "broken dedup watermark escaped the parallel refinement check"

let qcheck_case = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "parallel"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "pinned digest" `Quick test_pinned_digest;
          qcheck_case (test_incremental_matches_whole ());
          Alcotest.test_case "one-shot digest allocates only its result"
            `Quick test_one_shot_digest_allocates_only_result;
          qcheck_case (test_distinct_strings_distinct_digests ());
          Alcotest.test_case "MSB transpositions digest apart" `Quick
            test_msb_transposition_resists;
          Alcotest.test_case "injective over vs-stack exploration" `Slow
            test_fingerprint_injective_vs_stack;
        ] );
      ( "parity",
        [
          Alcotest.test_case "registry entries, jobs 1 = jobs 4" `Slow
            test_registry_parity;
          Alcotest.test_case "No_dedup defect caught at jobs 4" `Slow
            test_no_dedup_caught_parallel;
        ] );
    ]
