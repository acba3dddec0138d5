(* State keys: the one-pass [Buffer] writers against the [Format] renderers
   they replaced ([Key_oracle]).

   - oracle: on every state and successor a key-seeded walk of each
     registry entry reaches at the gate's 60k bound, the entry's key equals
     the oracle's rendering of the same state, byte for byte;
   - fill: [Prelude.Fill]'s line breaks equal [Format]'s on cut-separated
     lists at the margin's edge cases and on a seeded sweep;
   - domain safety: a key-seeded faulty-stack exploration reaches the
     same counts on two domains as on one. *)

open Prelude
module An = Analysis.Analyzer
module Reg = Analysis.Registry
module C = Check.Codec
module Msg = Msg_intf.String_msg
module Vsg = Vs.Vs_gen.Make (Msg)
module Dg = Core.Dvs_gen.Make (Msg)
module Sys_ = Dvs_impl.System.Make (Msg)
module Stk = Vs_impl.Stack.Make (Msg)
module Full = Full_system.Full_stack.Make (Msg)
module To_spec = To_broadcast.To_spec
module To_impl = To_broadcast.To_impl

(* ------------------------------------------------------------------ *)
(* The oracle over every registry entry                                *)
(* ------------------------------------------------------------------ *)

(* An entry's state type is hidden, so the oracle reads the state back
   from its codec image: the frame decodes, under a typed codec built as
   the registry builds the entry's, into a state equal to the original
   (codec images are canonical, test_codec), which the oracle renders. *)
let oracle name : bytes -> string =
  let via f key =
    let c = C.make ~id:name ~version:1 f in
    fun frame ->
      match C.decode c frame with
      | Ok s -> key s
      | Error e -> Alcotest.failf "%s: image does not decode: %s" name e
  in
  let module O_stk = Key_oracle.Stack (Msg) (Stk) in
  match name with
  | "vs-spec" ->
      let module O = Key_oracle.Vs_spec (Msg) (Vsg.Spec) in
      via (Vsg.Spec.codec_state C.string) O.state_key
  | "dvs-spec" ->
      let module O = Key_oracle.Dvs_spec (Msg) (Dg.Spec) in
      via (Dg.Spec.codec_state C.string) O.state_key
  | "dvs-impl" ->
      let module O = Key_oracle.System (Msg) (Sys_) in
      via (Sys_.codec_state C.string) O.state_key
  | "to-spec" -> via To_spec.codec_state Key_oracle.To_spec.state_key
  | "to-impl" -> via To_impl.codec_state Key_oracle.To_impl.state_key
  | "full-stack" ->
      let module O = Key_oracle.Full_stack (Msg) (Full) in
      via (Full.codec_state C.string) O.state_key
  | _ -> via (Stk.codec_state C.string) O_stk.state_key

let gate_bound = 60_000

(* The walk is the gate's: codec dedup, each expanded state's RNG seeded
   from its key.  Every state but the initial one is some expanded state's
   successor, so checking the initial state and every successor covers
   them all.  The oracle renders each distinct image once (by the frame's
   fingerprint), since a [Format] rendering costs several times the
   writer's; the key itself is compared on every visit. *)
let oracle_entry (Reg.Entry e) =
  let sub = e.subject in
  let (module A) = sub.An.automaton in
  let render = oracle e.name in
  let digest s = Check.Fingerprint.(to_hex (of_string s)) in
  let rendered : (string, string) Hashtbl.t = Hashtbl.create 65_536 in
  let visits = ref 0 in
  let check s =
    let frame = C.encode sub.codec s in
    let image = Check.Fingerprint.(to_hex (of_bytes frame ~pos:0 ~len:(Bytes.length frame))) in
    let want =
      match Hashtbl.find_opt rendered image with
      | Some d -> d
      | None ->
          let d = digest (render frame) in
          Hashtbl.add rendered image d;
          d
    in
    let got = sub.key s in
    if not (String.equal want (digest got)) then
      Alcotest.failf "%s: key differs from the Format oracle\n got: %S\nwant: %S"
        e.name got (render frame);
    incr visits
  in
  check sub.init;
  let _ =
    Check.Explorer.run sub.automaton ~key:sub.key ~codec:sub.codec ~invariants:[]
      ~seed:[| 0 |] ~max_states:gate_bound ~jobs:1 ~state_rng:true
      ~observe:(fun o ->
        let s = o.Check.Explorer.obs_state in
        List.iter (fun a -> check (A.step s a)) o.obs_enabled)
      ~init:sub.init ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d visits of %d states" e.name !visits (Hashtbl.length rendered))
    true
    (!visits > Hashtbl.length rendered && Hashtbl.length rendered > 1)

(* Two domains take entries from one queue: the entries share nothing,
   and keys are rendered on both at once, as the sharded explorer does. *)
let oracle_all () =
  let entries = Array.of_list (Reg.all () @ Reg.defects ()) in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length entries then begin
      oracle_entry entries.(i);
      work ()
    end
  in
  let other = Domain.spawn work in
  (match work () with
  | () -> ()
  | exception e ->
      Domain.join other;
      raise e);
  Domain.join other

(* ------------------------------------------------------------------ *)
(* Fill against Format                                                 *)
(* ------------------------------------------------------------------ *)

(* [lists] rendered as "<prefix>[a,b]|[c]..." with each list's elements
   cut-separated, once through [Format] and once through [Fill]. *)
let via_format prefix lists =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_print_string ppf prefix;
  List.iteri
    (fun i l ->
      if i > 0 then Format.pp_print_string ppf "|";
      Format.fprintf ppf "[%a]" (Format.pp_print_list Format.pp_print_string) l)
    lists;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let via_fill prefix lists =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "junk before the key";
  let from = Buffer.length buf in
  let fill = Fill.start buf in
  Buffer.add_string buf prefix;
  List.iteri
    (fun i l ->
      if i > 0 then Buffer.add_char buf '|';
      Buffer.add_char buf '[';
      List.iteri
        (fun j x ->
          if j > 0 then Fill.cut fill;
          Buffer.add_string buf x)
        l;
      Buffer.add_char buf ']')
    lists;
  Fill.finish fill;
  Buffer.sub buf from (Buffer.length buf - from)

let agree what prefix lists =
  Alcotest.(check string) what (via_format prefix lists) (via_fill prefix lists)

let fill_cases () =
  let x n = String.make n 'x' in
  (* The prefix "[" + "aa" ends the first segment at column 3; the second
     segment is then exactly the 75 bytes left, or one fewer. *)
  agree "segment ending exactly at column 78" "" [ [ "aa"; x 75; "b" ] ];
  Alcotest.(check string) "... breaks before it" ("[aa\n" ^ x 75 ^ "\nb]")
    (via_fill "" [ [ "aa"; x 75; "b" ] ]);
  agree "segment ending at column 77" "" [ [ "aa"; x 74; "b" ] ];
  Alcotest.(check string) "... does not, and the last cut breaks" ("[aa" ^ x 74 ^ "\nb]")
    (via_fill "" [ [ "aa"; x 74; "b" ] ]);
  agree "empty list" "C" [ [] ];
  agree "empty lists around a cut" "C" [ []; [ "a"; "b" ]; [] ];
  agree "one-element list" "C" [ [ "only" ] ];
  agree "segment longer than the margin" "" [ [ "a"; x 120; "b"; "c" ] ];
  agree "prefix past the margin" (x 90) [ [ "a"; "b" ] ];
  agree "multi-byte text counts bytes" "⟨⊥⟩" [ [ "⊥⊥⊥⊥"; x 60; "⟨⟩" ] ]

let fill_sweep () =
  let rng = Random.State.make [| 30 |] in
  for _ = 1 to 5_000 do
    let elt () =
      let n = if Random.State.int rng 8 = 0 then Random.State.int rng 100 else Random.State.int rng 20 in
      String.init n (fun _ -> Char.chr (97 + Random.State.int rng 26))
    in
    let list () = List.init (Random.State.int rng 6) (fun _ -> elt ()) in
    let lists = List.init (1 + Random.State.int rng 5) (fun _ -> list ()) in
    let prefix = String.make (Random.State.int rng 10) 'p' in
    agree "seeded sweep" prefix lists
  done

(* ------------------------------------------------------------------ *)
(* Domain safety                                                       *)
(* ------------------------------------------------------------------ *)

(* vs-stack-faulty's stack with a smaller adversarial budget (no
   duplicates) and no view change, so that the key-seeded, key-deduped
   graph is exhausted (19,684 states; the registry entry's bound truncates
   it, and a truncated run's transition count depends on scheduling).  Its
   reconfigurations still draw from the key-seeded RNG (another explorer
   seed reaches another count), so keys rendered on two domains at once
   must seed and identify exactly the states one domain does. *)
let domain_safety () =
  let cfg =
    {
      (Stk.default_config ~payloads:[ "a" ] ~universe:2) with
      Stk.max_views = 0;
      max_sends = 1;
    }
  in
  let init =
    Stk.initial ~faults:(Vs_impl.Fault.adversarial ~max_duplicates:0 ()) ~universe:2
      ~p0:(Proc.Set.universe 2) ()
  in
  let run jobs =
    let o =
      Check.Explorer.run (Stk.generative_pure cfg) ~key:Stk.state_key ~invariants:[]
        ~state_rng:true ~seed:[| 0 |] ~jobs ~max_states:500_000 ~init ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "exhausted at jobs:%d" jobs)
      false o.Check.Explorer.stats.Check.Explorer.truncated;
    o.Check.Explorer.stats
  in
  let one = run 1 and two = run 2 in
  Alcotest.(check int) "states" one.Check.Explorer.states two.Check.Explorer.states;
  Alcotest.(check int) "transitions" one.Check.Explorer.transitions
    two.Check.Explorer.transitions;
  Alcotest.(check bool) "non-trivial" true (one.Check.Explorer.states > 1_000)

let () =
  Alcotest.run "key"
    [
      ("oracle", [ Alcotest.test_case "every entry, gate bound" `Slow oracle_all ]);
      ( "fill",
        [
          Alcotest.test_case "margin edge cases" `Quick fill_cases;
          Alcotest.test_case "seeded sweep" `Quick fill_sweep;
        ] );
      ( "domain-safety",
        [ Alcotest.test_case "faulty stack, jobs 2 = jobs 1" `Slow domain_safety ] );
    ]
