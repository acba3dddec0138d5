open Prelude
module Msg = Msg_intf.String_msg

type entry =
  | Entry : {
      name : string;
      doc : string;
      max_states : int;
      expected : Check.Shrink.failure option;
      cex_seed : int array;
      subject : ('s, 'a) Analyzer.subject;
    }
      -> entry

let name (Entry e) = e.name
let doc (Entry e) = e.doc
let expected (Entry e) = e.expected
let cex_seed (Entry e) = e.cex_seed
let layer (Entry e) = e.subject.Analyzer.layer
let generator (Entry e) = e.subject.Analyzer.generator

(* One-word schema descriptor for [bin/analyze --list]. *)
let schema_kind (Entry e) =
  match (e.subject.Analyzer.footprint, e.subject.Analyzer.symmetry) with
  | None, None -> "none"
  | Some f, sym ->
      let fine = List.length f.Footprint.components > 1 in
      let fp = if fine then "footprint" else "coarse" in
      if Option.is_some sym then fp ^ "+symmetry" else fp
  | None, Some _ -> "symmetry"

(* Every registry entry packages its automaton with [generative_pure]:
   all auxiliary randomness (view-membership proposals are [`All_subsets],
   i.e. deterministic, wherever the config offers it; gating draws
   elsewhere) comes from the RNG the explorer passes per call, so candidate
   sets are a pure function of (seed, state) and analysis results are
   identical at every [--jobs] count. *)

(* ------------------------------------------------------------------ *)
(* Footprint schemas                                                   *)
(* ------------------------------------------------------------------ *)

(* The coarse single-family schema for entries without a component-level
   decomposition (the DVS layers and the full stack, whose states compose
   several automata): every class may read and write the whole state, so
   no pair is certified independent and ample-set POR never engages —
   the honest "static facts inconclusive, expand fully" declaration.
   The dynamic audits still run and are trivially conformant. *)
let coarse_schema ~classes ~class_of ~key : _ Footprint.schema =
  let foot = Footprint.[ eff Read "state"; eff Write "state" ] in
  {
    Footprint.components =
      [ ("state", "whole automaton state, not decomposed") ];
    class_of;
    classes;
    class_foot = (fun _ -> foot);
    foot = (fun _ _ -> foot);
    fragile = (fun _ -> false);
    visible = (fun _ -> false);
    serialized = (fun _ -> false);
    invariant_reads = [ "state" ];
    frozen = (fun _ -> []);
    project = (fun s -> [ ("state", key s) ]);
  }

(* ------------------------------------------------------------------ *)
(* VS specification (Figure 1)                                         *)
(* ------------------------------------------------------------------ *)

module Vsg = Vs.Vs_gen.Make (Msg)

let vs_spec_class = function
  | Vsg.Spec.Createview _ -> "createview"
  | Vsg.Spec.Newview _ -> "newview"
  | Vsg.Spec.Gpsnd _ -> "gpsnd"
  | Vsg.Spec.Order _ -> "order"
  | Vsg.Spec.Gprcv _ -> "gprcv"
  | Vsg.Spec.Safe _ -> "safe"

(* Figure 1's state decomposes cleanly into its six fields.  Every class
   is either external ([gpsnd]/[newview]/[gprcv]/[safe]) or writes an
   invariant-read family ([createview] → [created], [order] → [queue]),
   so no ample set ever forms: the schema's value here is the audited
   conflict relation itself, and reduction comes from symmetry instead. *)
let vs_spec_schema () : (Vsg.Spec.state, Vsg.Spec.action) Footprint.schema =
  let open Footprint in
  let i = string_of_int in
  let pg p g = Printf.sprintf "%d.%d" p g in
  let class_foot = function
    | "createview" -> [ eff Read "created"; eff Insert "created" ]
    | "newview" ->
        [ eff Read_at "created"; eff Read "viewids"; eff Write "viewids" ]
    | "gpsnd" -> [ eff Read_at "viewids"; eff Push "pending" ]
    | "order" -> [ eff Pop "pending"; eff Append "queue" ]
    | "gprcv" ->
        [
          eff Read_at "viewids";
          eff Read_at "queue";
          eff Read "next";
          eff Write "next";
        ]
    | "safe" ->
        [
          eff Read_at "viewids";
          eff Read_at "queue";
          eff Read "next";
          eff Read "next_safe";
          eff Write "next_safe";
        ]
    | _ -> []
  in
  let foot _ = function
    | Vsg.Spec.Createview v ->
        [ eff Read "created"; eff ~inst:(i (View.id v)) Insert "created" ]
    | Vsg.Spec.Newview (v, p) ->
        [
          eff ~inst:(i (View.id v)) Read_at "created";
          eff ~inst:(i p) Read "viewids";
          eff ~inst:(i p) Write "viewids";
        ]
    | Vsg.Spec.Gpsnd (p, _) ->
        [ eff ~inst:(i p) Read_at "viewids"; eff ~inst:(i p) Push "pending" ]
    | Vsg.Spec.Order (_, p, g) ->
        [ eff ~inst:(i p) Pop "pending"; eff ~inst:(i g) Append "queue" ]
    | Vsg.Spec.Gprcv { dst; gid; _ } ->
        [
          eff ~inst:(i dst) Read_at "viewids";
          eff ~inst:(i gid) Read_at "queue";
          eff ~inst:(pg dst gid) Read "next";
          eff ~inst:(pg dst gid) Write "next";
        ]
    | Vsg.Spec.Safe { dst; gid; _ } ->
        [
          eff ~inst:(i dst) Read_at "viewids";
          eff ~inst:(i gid) Read_at "queue";
          (* safe delivery reads every member's [next] *)
          eff Read "next";
          eff ~inst:(pg dst gid) Read "next_safe";
          eff ~inst:(pg dst gid) Write "next_safe";
        ]
  in
  let project (s : Vsg.Spec.state) =
    let seq_msgs q = String.concat "," (List.map Fun.id (Seqs.to_list q)) in
    let seq_ordered q =
      String.concat ","
        (List.map (fun (m, p) -> Printf.sprintf "%s.%d" m p) (Seqs.to_list q))
    in
    [
      ( "created",
        View.Set.fold
          (fun v acc -> acc ^ Format.asprintf "%a;" View.pp v)
          s.created "" );
      ( "viewids",
        Proc.Map.fold
          (fun p g acc -> acc ^ Format.asprintf "%d=%a;" p Gid.Bot.pp g)
          s.current_viewid "" );
      ( "queue",
        Gid.Map.fold
          (fun g q acc -> acc ^ Printf.sprintf "%d=%s;" g (seq_ordered q))
          s.queue "" );
      ( "pending",
        Pg_map.fold
          (fun (p, g) q acc ->
            acc ^ Printf.sprintf "%d.%d=%s;" p g (seq_msgs q))
          s.pending "" );
      ( "next",
        Pg_map.fold
          (fun (p, g) n acc -> acc ^ Printf.sprintf "%d.%d=%d;" p g n)
          s.next "" );
      ( "next_safe",
        Pg_map.fold
          (fun (p, g) n acc -> acc ^ Printf.sprintf "%d.%d=%d;" p g n)
          s.next_safe "" );
    ]
  in
  {
    components =
      [
        ("created", "views created so far (Figure 1's created)");
        ("viewids", "per-process current view id (current-viewid)");
        ("queue", "per-view total order of messages (queue)");
        ("pending", "sent but not yet ordered, per (proc, view) (pending)");
        ("next", "per-(proc, view) delivery pointer (next)");
        ("next_safe", "per-(proc, view) safe pointer (next-safe)");
      ];
    class_of = vs_spec_class;
    classes = [ "createview"; "newview"; "gpsnd"; "order"; "gprcv"; "safe" ];
    class_foot;
    foot;
    fragile = (fun _ -> false);
    visible =
      (fun c -> List.mem c [ "gpsnd"; "newview"; "gprcv"; "safe" ]);
    serialized = (fun _ -> false);
    (* invariant 3.1 reads [created]; the indices invariant reads the
       queues and both pointer arrays *)
    invariant_reads = [ "created"; "queue"; "next"; "next_safe" ];
    frozen = (fun _ -> []);
    project;
  }

(* [`All_subsets] view proposals and a single payload make the generator
   an RNG-free function of the state, and every field is keyed by
   process id symmetrically — the audited basis for orbit
   canonicalization. *)
let vs_spec_symmetry () : (Vsg.Spec.state, Vsg.Spec.action) Symmetry.spec =
  {
    Symmetry.procs = [ 0; 1 ];
    permute = Vsg.Spec.permute;
    permute_action = Vsg.Spec.permute_action;
    equivariant = true;
    deterministic = true;
  }

let vs_spec () =
  let cfg =
    {
      (Vsg.default_config ~payloads:[ "a" ] ~universe:2) with
      Vsg.max_views = 2;
      max_sends = 2;
      view_proposals = `All_subsets;
    }
  in
  Entry
    {
      name = "vs-spec";
      doc = "VS service specification (Figure 1), invariants 3.1 + indices";
      max_states = 150_000;
      expected = None;
      cex_seed = [| 0 |];
      subject =
        {
          Analyzer.automaton = Vsg.generative_pure cfg;
          init = Vsg.Spec.initial (Proc.Set.universe 2);
          key = Vsg.Spec.state_key;
          equal_state = Some Vsg.Spec.equal_state;
          invariants = Vsg.Spec.checked_invariants;
          pp_state = Vsg.Spec.pp_state;
          pp_action = Vsg.Spec.pp_action;
          action_class = vs_spec_class;
          all_classes =
            [ "createview"; "newview"; "gpsnd"; "order"; "gprcv"; "safe" ];
          complete_classes = [ "newview"; "order"; "gprcv"; "safe" ];
          exact_candidates = false;
          quiescent = None;
          allowed_dead = [];
          check_step = None;
          step_class = "step";
          simplify_action = None;
          layer = "spec";
          generator = "over-approx; deterministic (all view subsets)";
          footprint = Some (vs_spec_schema ());
          symmetry = Some (vs_spec_symmetry ());
          codec =
            Check.Codec.make ~id:"vs-spec" ~version:1
              (Vsg.Spec.codec_state Check.Codec.string);
          instrumented_step = None;
        };
    }

(* ------------------------------------------------------------------ *)
(* DVS specification (Figure 2)                                        *)
(* ------------------------------------------------------------------ *)

module Dg = Core.Dvs_gen.Make (Msg)
module Dinv = Core.Dvs_invariants.Make (Msg)

let dvs_spec_class = function
  | Dg.Spec.Createview _ -> "createview"
  | Dg.Spec.Newview _ -> "newview"
  | Dg.Spec.Register _ -> "register"
  | Dg.Spec.Gpsnd _ -> "gpsnd"
  | Dg.Spec.Order _ -> "order"
  | Dg.Spec.Gprcv _ -> "gprcv"
  | Dg.Spec.Safe _ -> "safe"

let dvs_spec_classes =
  [ "createview"; "newview"; "register"; "gpsnd"; "order"; "gprcv"; "safe" ]

let dvs_spec () =
  let cfg =
    {
      (Dg.default_config ~payloads:[ "a" ] ~universe:2) with
      Dg.max_views = 2;
      max_sends = 1;
      view_proposals = `All_subsets;
    }
  in
  Entry
    {
      name = "dvs-spec";
      doc = "DVS service specification (Figure 2), invariants 4.1/4.2";
      max_states = 150_000;
      expected = None;
      cex_seed = [| 0 |];
      subject =
        {
          Analyzer.automaton = Dg.generative_pure cfg;
          init = Dg.Spec.initial (Proc.Set.universe 2);
          key = Dg.Spec.state_key;
          equal_state = Some Dg.Spec.equal_state;
          invariants = Dinv.checked;
          pp_state = Dg.Spec.pp_state;
          pp_action = Dg.Spec.pp_action;
          action_class = dvs_spec_class;
          all_classes = dvs_spec_classes;
          (* [register] is an always-enabled input (like [gpsnd]): the
             generator only proposes it for unregistered processes, so it
             is not completeness-checked. *)
          complete_classes = [ "newview"; "order"; "gprcv"; "safe" ];
          exact_candidates = false;
          quiescent = None;
          allowed_dead = [];
          check_step = None;
          step_class = "step";
          simplify_action = None;
          layer = "spec";
          generator = "over-approx; deterministic (all view subsets)";
          footprint =
            Some
              (coarse_schema ~classes:dvs_spec_classes ~class_of:dvs_spec_class
                 ~key:Dg.Spec.state_key);
          symmetry = None;
          codec =
            Check.Codec.make ~id:"dvs-spec" ~version:1
              (Dg.Spec.codec_state Check.Codec.string);
          instrumented_step = None;
        };
    }

(* ------------------------------------------------------------------ *)
(* DVS-IMPL: Figure 3 nodes over the VS specification (Section 5)      *)
(* ------------------------------------------------------------------ *)

module Sys = Dvs_impl.System.Make (Msg)
module Iinv = Dvs_impl.Impl_invariants.Make (Msg)

let dvs_impl_class = function
  | Sys.Dvs_gpsnd _ -> "dvs-gpsnd"
  | Sys.Dvs_register _ -> "dvs-register"
  | Sys.Dvs_newview _ -> "dvs-newview"
  | Sys.Dvs_gprcv _ -> "dvs-gprcv"
  | Sys.Dvs_safe _ -> "dvs-safe"
  | Sys.Vs_createview _ -> "vs-createview"
  | Sys.Vs_newview _ -> "vs-newview"
  | Sys.Vs_gpsnd _ -> "vs-gpsnd"
  | Sys.Vs_order _ -> "vs-order"
  | Sys.Vs_gprcv _ -> "vs-gprcv"
  | Sys.Vs_safe _ -> "vs-safe"
  | Sys.Garbage_collect _ -> "gc"

let dvs_impl_classes =
  [
    "dvs-gpsnd";
    "dvs-register";
    "dvs-newview";
    "dvs-gprcv";
    "dvs-safe";
    "vs-createview";
    "vs-newview";
    "vs-gpsnd";
    "vs-order";
    "vs-gprcv";
    "vs-safe";
    "gc";
  ]

let dvs_impl () =
  let cfg =
    {
      (Sys.default_config ~payloads:[ "a" ] ~universe:2) with
      Sys.max_views = 2;
      max_sends = 1;
      schedule = Sys.Unrestricted;
      register_probability = 1.0;
      view_proposals = `All_subsets;
    }
  in
  Entry
    {
      name = "dvs-impl";
      doc = "VS-TO-DVS nodes over the VS spec (Figure 3), invariants 5.1-5.6";
      max_states = 150_000;
      expected = None;
      cex_seed = [| 0 |];
      subject =
        {
          Analyzer.automaton = Sys.generative_pure cfg;
          init = Sys.initial ~universe:2 ~p0:(Proc.Set.universe 2);
          key = Sys.state_key;
          equal_state = Some Sys.equal_state;
          invariants = Iinv.checked;
          pp_state = Sys.pp_state;
          pp_action = Sys.pp_action;
          action_class = dvs_impl_class;
          all_classes = dvs_impl_classes;
          (* [dvs-gpsnd]/[dvs-register] are always-enabled inputs the
             generator proposes selectively (budget / registration state);
             [vs-createview] is paced by the view budget. *)
          complete_classes =
            [
              "dvs-newview";
              "dvs-gprcv";
              "dvs-safe";
              "vs-newview";
              "vs-gpsnd";
              "vs-order";
              "vs-gprcv";
              "vs-safe";
              "gc";
            ];
          exact_candidates = false;
          quiescent = None;
          allowed_dead = [];
          check_step = None;
          step_class = "step";
          simplify_action = None;
          layer = "impl";
          generator = "over-approx; rng-paced registration and views";
          footprint =
            Some
              (coarse_schema ~classes:dvs_impl_classes ~class_of:dvs_impl_class
                 ~key:Sys.state_key);
          symmetry = None;
          codec =
            Check.Codec.make ~id:"dvs-impl" ~version:1
              (Sys.codec_state Check.Codec.string);
          instrumented_step = None;
        };
    }

(* ------------------------------------------------------------------ *)
(* TO specification (Section 6)                                        *)
(* ------------------------------------------------------------------ *)

module To = To_broadcast.To_spec
module Tog = To_broadcast.To_gen

let to_spec_class = function
  | To.Bcast _ -> "bcast"
  | To.Order _ -> "order"
  | To.Brcv _ -> "brcv"

(* Section 6's three-field state.  [order] writes the invariant-read
   total order and the two client classes are external, so — like the VS
   spec — the schema certifies conflicts but never forms an ample set;
   symmetry carries the reduction. *)
let to_spec_schema () : (To.state, To.action) Footprint.schema =
  let open Footprint in
  let i = string_of_int in
  let class_foot = function
    | "bcast" -> [ eff Push "pending" ]
    | "order" -> [ eff Pop "pending"; eff Append "order" ]
    | "brcv" -> [ eff Read_at "order"; eff Read "next"; eff Write "next" ]
    | _ -> []
  in
  let foot _ = function
    | To.Bcast (p, _) -> [ eff ~inst:(i p) Push "pending" ]
    | To.Order (_, p) -> [ eff ~inst:(i p) Pop "pending"; eff Append "order" ]
    | To.Brcv { dst; _ } ->
        [
          eff Read_at "order";
          eff ~inst:(i dst) Read "next";
          eff ~inst:(i dst) Write "next";
        ]
  in
  let project (s : To.state) =
    [
      ( "pending",
        Proc.Map.fold
          (fun p q acc ->
            acc
            ^ Printf.sprintf "%d=%s;" p
                (String.concat "," (Seqs.to_list q)))
          s.To.pending "" );
      ( "order",
        String.concat ","
          (List.map
             (fun (m, p) -> Printf.sprintf "%s.%d" m p)
             (Seqs.to_list s.To.order)) );
      ( "next",
        Proc.Map.fold
          (fun p n acc -> acc ^ Printf.sprintf "%d=%d;" p n)
          s.To.next "" );
    ]
  in
  {
    components =
      [
        ("pending", "submitted, not yet ordered, per origin");
        ("order", "the system-wide total order");
        ("next", "per-destination report pointer");
      ];
    class_of = to_spec_class;
    classes = [ "bcast"; "order"; "brcv" ];
    class_foot;
    foot;
    fragile = (fun _ -> false);
    visible = (fun c -> List.mem c [ "bcast"; "brcv" ]);
    serialized = (fun _ -> false);
    invariant_reads = [ "order"; "next" ];
    frozen = (fun _ -> []);
    project;
  }

(* The exact generator never touches its RNG and every field is keyed by
   process id symmetrically. *)
let to_spec_symmetry () : (To.state, To.action) Symmetry.spec =
  {
    Symmetry.procs = [ 0; 1 ];
    permute = To.permute;
    permute_action = To.permute_action;
    equivariant = true;
    deterministic = true;
  }

let to_spec () =
  let universe = 2 in
  let cfg = { Tog.universe; payloads = [ "a"; "b" ]; max_bcasts = 2 } in
  Entry
    {
      name = "to-spec";
      doc = "TO service specification (Section 6), exact generator";
      max_states = 50_000;
      expected = None;
      cex_seed = [| 0 |];
      subject =
        {
          Analyzer.automaton = Tog.generative cfg;
          init = To.initial;
          key = To.state_key;
          equal_state = Some To.equal_state;
          invariants =
            [
              Ioa.Invariant.with_antecedent To.invariant_next_bounded (fun s ->
                  not (Proc.Map.is_empty s.To.next));
            ];
          pp_state = To.pp_state;
          pp_action = To.pp_action;
          action_class = to_spec_class;
          all_classes = [ "bcast"; "order"; "brcv" ];
          complete_classes = [ "order"; "brcv" ];
          exact_candidates = true;
          quiescent =
            Some
              (fun s ->
                Proc.Map.is_empty s.To.pending
                && List.for_all
                     (fun p -> To.next_of s p = Seqs.length s.To.order + 1)
                     (List.init universe Fun.id));
          allowed_dead = [];
          check_step = None;
          step_class = "step";
          simplify_action = None;
          layer = "spec";
          generator = "exact; rng-free";
          footprint = Some (to_spec_schema ());
          symmetry = Some (to_spec_symmetry ());
          codec =
            Check.Codec.make ~id:"to-spec" ~version:1 To.codec_state;
          instrumented_step = None;
        };
    }

(* ------------------------------------------------------------------ *)
(* TO-IMPL: Figure 5 nodes over the DVS specification (Section 6.1)    *)
(* ------------------------------------------------------------------ *)

module Timpl = To_broadcast.To_impl
module Tinv = To_broadcast.To_invariants

let to_impl_class = function
  | Timpl.Bcast _ -> "bcast"
  | Timpl.Brcv _ -> "brcv"
  | Timpl.Label_msg _ -> "label"
  | Timpl.Confirm _ -> "confirm"
  | Timpl.Dvs_createview _ -> "dvs-createview"
  | Timpl.Dvs_newview _ -> "dvs-newview"
  | Timpl.Dvs_register _ -> "dvs-register"
  | Timpl.Dvs_gpsnd _ -> "dvs-gpsnd"
  | Timpl.Dvs_order _ -> "dvs-order"
  | Timpl.Dvs_gprcv _ -> "dvs-gprcv"
  | Timpl.Dvs_safe _ -> "dvs-safe"

let to_impl_classes =
  [
    "bcast";
    "brcv";
    "label";
    "confirm";
    "dvs-createview";
    "dvs-newview";
    "dvs-register";
    "dvs-gpsnd";
    "dvs-order";
    "dvs-gprcv";
    "dvs-safe";
  ]

let to_impl () =
  let cfg =
    {
      (* Three views, not two: summaries carrying [high = g1] only enter
         circulation during a third view's state exchange, so with a
         two-view budget invariant 6.2 passes vacuously (the analyzer
         catches exactly this). *)
      (Timpl.default_config ~payloads:[ "a" ] ~universe:2) with
      Timpl.max_views = 3;
      max_bcasts = 1;
      view_proposals = `All_subsets;
    }
  in
  Entry
    {
      name = "to-impl";
      doc = "DVS-TO-TO nodes over the DVS spec (Figure 5), invariants 6.1-6.3";
      max_states = 150_000;
      expected = None;
      cex_seed = [| 0 |];
      subject =
        {
          Analyzer.automaton = Timpl.generative_pure cfg;
          init = Timpl.initial ~universe:2 ~p0:(Proc.Set.universe 2);
          key = Timpl.state_key;
          equal_state = Some Timpl.equal_state;
          invariants = Tinv.checked;
          pp_state = Timpl.pp_state;
          pp_action = Timpl.pp_action;
          action_class = to_impl_class;
          all_classes = to_impl_classes;
          complete_classes =
            [
              "brcv";
              "label";
              "confirm";
              "dvs-newview";
              "dvs-register";
              "dvs-gpsnd";
              "dvs-order";
              "dvs-gprcv";
              "dvs-safe";
            ];
          exact_candidates = false;
          quiescent = None;
          allowed_dead = [];
          check_step = None;
          step_class = "step";
          simplify_action = None;
          layer = "impl";
          generator = "over-approx; deterministic proposals";
          footprint =
            Some
              (coarse_schema ~classes:to_impl_classes ~class_of:to_impl_class
                 ~key:Timpl.state_key);
          symmetry = None;
          codec =
            Check.Codec.make ~id:"to-impl" ~version:1 Timpl.codec_state;
          instrumented_step = None;
        };
    }

(* ------------------------------------------------------------------ *)
(* VS-IMPL: the sequencer-protocol engine stack (lib/vs_impl)          *)
(* ------------------------------------------------------------------ *)

module Stk = Vs_impl.Stack.Make (Msg)

let stack_action_class = function
  | Stk.Gpsnd _ -> "gpsnd"
  | Stk.Newview _ -> "newview"
  | Stk.Gprcv _ -> "gprcv"
  | Stk.Safe _ -> "safe"
  | Stk.Createview _ -> "createview"
  | Stk.Reconfigure _ -> "reconfigure"
  | Stk.Send _ -> "send"
  | Stk.Deliver _ -> "deliver"
  | Stk.Drop _ -> "drop"
  | Stk.Duplicate _ -> "duplicate"
  | Stk.Reorder _ -> "reorder"
  | Stk.Retransmit _ -> "retransmit"

(* ------------------------------------------------------------------ *)
(* Stack footprint schema                                              *)
(* ------------------------------------------------------------------ *)

(* The schema refines [stack_action_class]'s coarse [send]/[deliver]
   into per-packet-kind classes: the four send paths touch disjoint
   engine families (e.g. a [Seq] rebroadcast never reads [cur]), and
   lumping them would drag every send into the ack machinery's conflict
   with [gprcv].  Channels are likewise split into per-kind sub-families
   ([channel.fwd] … [channel.stable]): each receiver handler consumes
   only its own kind, so a [Seq] push and an [Ack] pop on the same
   physical FIFO commute — the write-conformance projection renders the
   per-kind subsequences, and the swap-replay audit's joinability probe
   covers the transiently-divergent interleaving of a shared channel. *)
let stack_fine_class = function
  | Stk.Send { pkt; _ } -> "send-" ^ Stk.N.pkt_kind pkt
  | Stk.Deliver { pkt; _ } -> "deliver-" ^ Stk.N.pkt_kind pkt
  | a -> stack_action_class a

let stack_kinds = [ "fwd"; "seq"; "ack"; "stable" ]

let stack_protocol_classes =
  [
    "gpsnd";
    "newview";
    "gprcv";
    "safe";
    "createview";
    "reconfigure";
    "send-fwd";
    "send-seq";
    "send-ack";
    "send-stable";
    "deliver-fwd";
    "deliver-seq";
    "deliver-ack";
    "deliver-stable";
  ]

let stack_components =
  [
    ("cur", "per-engine current view");
    ("views_seen", "per-engine view-id → view map");
    ("outq", "per-engine unforwarded client messages (FIFO)");
    ("fwd_log", "per-engine forwarded messages, grow-only");
    ("seq_log", "per-sequencer assigned order, grow-only");
    ("fwd_seen", "sequencer's per-sender accepted-forward watermark");
    ("bcast_sent", "sequencer's per-destination rebroadcast counter");
    ("acked_by", "sequencer's per-member cumulative ack");
    ("stable_sent", "sequencer's per-destination stable bound sent");
    ("rcv_buf", "receiver's (view, sn) → message buffer");
    ("next_deliver", "per-engine delivery pointer");
    ("next_safe_e", "per-engine safe pointer");
    ("acked_upto", "per-engine own cumulative ack sent");
    ("stable_upto", "per-engine learned stable bound");
    ("issued", "daemon: views issued (and the next fresh id)");
    ("notified", "daemon: last view id delivered per process");
    ("components", "daemon: current connectivity components");
    ("blocked", "net: ordered process pairs currently separated");
    ("faults", "net: consumed drop/duplicate/reorder budgets");
    ("channel.fwd", "in-flight Fwd packets per (src, dst) channel");
    ("channel.seq", "in-flight Seq packets per (src, dst) channel");
    ("channel.ack", "in-flight Ack packets per (src, dst) channel");
    ("channel.stable", "in-flight Stable packets per (src, dst) channel");
  ]

let stack_class_foot =
  let open Footprint in
  let chan k op = eff op ("channel." ^ k) in
  function
  | "gpsnd" -> [ eff Read "cur"; eff Push "outq" ]
  | "newview" ->
      [
        eff Read "issued";
        eff Read "notified";
        eff Write "notified";
        eff Write "cur";
        eff Insert "views_seen";
      ]
  | "gprcv" ->
      [
        eff Read "cur";
        eff Read_at "rcv_buf";
        eff Read "next_deliver";
        eff Write "next_deliver";
      ]
  | "safe" ->
      [
        eff Read "cur";
        eff Read "stable_upto";
        eff Read_at "rcv_buf";
        eff Read "next_safe_e";
        eff Write "next_safe_e";
      ]
  | "createview" ->
      [
        eff Read "components";
        eff Read "notified";
        eff Read "issued";
        eff Insert "issued";
      ]
  | "reconfigure" -> [ eff Write "components"; eff Write "blocked" ]
  | "send-fwd" ->
      [
        eff Read "cur";
        eff Pop "outq";
        eff Read "fwd_log";
        eff Append "fwd_log";
        chan "fwd" Push;
      ]
  | "send-seq" ->
      [
        eff Read_prefix "seq_log";
        eff Read_at "views_seen";
        eff Read "bcast_sent";
        eff Write "bcast_sent";
        chan "seq" Push;
      ]
  | "send-ack" ->
      [
        eff Read "next_deliver";
        eff Read_at "views_seen";
        eff Read "acked_upto";
        eff Write "acked_upto";
        chan "ack" Push;
      ]
  | "send-stable" ->
      [
        eff Read "views_seen";
        eff Read "acked_by";
        eff Read "stable_sent";
        eff Write "stable_sent";
        chan "stable" Push;
      ]
  | "deliver-fwd" ->
      [
        eff Read "blocked";
        chan "fwd" Pop;
        eff Read "cur";
        eff Read "fwd_seen";
        eff Write "fwd_seen";
        eff Append "seq_log";
      ]
  | "deliver-seq" ->
      [ eff Read "blocked"; chan "seq" Pop; eff Read "cur"; eff Insert "rcv_buf" ]
  | "deliver-ack" ->
      [
        eff Read "blocked";
        chan "ack" Pop;
        eff Read "cur";
        eff Read "acked_by";
        eff Write "acked_by";
      ]
  | "deliver-stable" ->
      [
        eff Read "blocked";
        chan "stable" Pop;
        eff Read "cur";
        eff Read "stable_upto";
        eff Write "stable_upto";
      ]
  | "drop" -> eff Write "faults" :: List.map (fun k -> chan k Pop) stack_kinds
  | "duplicate" ->
      eff Write "faults"
      :: List.concat_map (fun k -> [ chan k Read; chan k Push ]) stack_kinds
  | "reorder" ->
      eff Write "faults" :: List.map (fun k -> chan k Write) stack_kinds
  | "retransmit" ->
      [
        eff Read "cur";
        eff Read "views_seen";
        eff Read "fwd_log";
        eff Read "seq_log";
        eff Read "rcv_buf";
        eff Read "acked_by";
        eff Read "bcast_sent";
        eff Read "next_deliver";
        eff Read "acked_upto";
        eff Read "stable_sent";
      ]
      @ List.concat_map (fun k -> [ chan k Read; chan k Push ]) stack_kinds
  | _ -> []

let stack_foot (s : Stk.state) (a : Stk.action) =
  let open Footprint in
  let i = string_of_int in
  let pg p g = Printf.sprintf "%d.%d" p g in
  let pdg p d g = Printf.sprintf "%d.%d.%d" p d g in
  let ch src dst = Printf.sprintf "%d>%d" src dst in
  match a with
  | Stk.Gpsnd (p, _) -> [ eff ~inst:(i p) Read "cur"; eff ~inst:(i p) Push "outq" ]
  | Stk.Newview (_, p) ->
      [
        eff Read "issued";
        eff ~inst:(i p) Read "notified";
        eff ~inst:(i p) Write "notified";
        eff ~inst:(i p) Write "cur";
        eff ~inst:(i p) Insert "views_seen";
      ]
  | Stk.Gprcv { dst; _ } ->
      [
        eff ~inst:(i dst) Read "cur";
        eff ~inst:(i dst) Read_at "rcv_buf";
        eff ~inst:(i dst) Read "next_deliver";
        eff ~inst:(i dst) Write "next_deliver";
      ]
  | Stk.Safe { dst; _ } ->
      [
        eff ~inst:(i dst) Read "cur";
        eff ~inst:(i dst) Read "stable_upto";
        eff ~inst:(i dst) Read_at "rcv_buf";
        eff ~inst:(i dst) Read "next_safe_e";
        eff ~inst:(i dst) Write "next_safe_e";
      ]
  | Stk.Createview _ ->
      [
        eff Read "components";
        eff Read "notified";
        eff Read "issued";
        eff Insert "issued";
      ]
  | Stk.Reconfigure _ -> [ eff Write "components"; eff Write "blocked" ]
  | Stk.Send { src; dst; pkt } -> (
      let push k = eff ~inst:(ch src dst) Push ("channel." ^ k) in
      match pkt with
      | Vs_impl.Packet.Fwd _ ->
          [
            eff ~inst:(i src) Read "cur";
            eff ~inst:(i src) Pop "outq";
            eff ~inst:(i src) Read "fwd_log";
            eff ~inst:(i src) Append "fwd_log";
            push "fwd";
          ]
      | Vs_impl.Packet.Seq { gid; _ } ->
          [
            eff ~inst:(pg src gid) Read_prefix "seq_log";
            eff ~inst:(i src) Read_at "views_seen";
            eff ~inst:(pdg src dst gid) Read "bcast_sent";
            eff ~inst:(pdg src dst gid) Write "bcast_sent";
            push "seq";
          ]
      | Vs_impl.Packet.Ack _ ->
          [
            eff ~inst:(i src) Read "next_deliver";
            eff ~inst:(i src) Read_at "views_seen";
            eff ~inst:(i src) Read "acked_upto";
            eff ~inst:(i src) Write "acked_upto";
            push "ack";
          ]
      | Vs_impl.Packet.Stable { gid; _ } ->
          [
            eff ~inst:(i src) Read "views_seen";
            eff ~inst:(i src) Read "acked_by";
            eff ~inst:(pdg src dst gid) Read "stable_sent";
            eff ~inst:(pdg src dst gid) Write "stable_sent";
            push "stable";
          ])
  | Stk.Deliver { src; dst; pkt } -> (
      let base k rest =
        eff ~inst:(ch src dst) Read "blocked"
        :: eff ~inst:(ch src dst) Pop ("channel." ^ k)
        :: eff ~inst:(i dst) Read "cur"
        :: rest
      in
      match pkt with
      | Vs_impl.Packet.Fwd { gid; _ } ->
          base "fwd"
            [
              eff ~inst:(i dst) Read "fwd_seen";
              eff ~inst:(i dst) Write "fwd_seen";
              eff ~inst:(pg dst gid) Append "seq_log";
            ]
      | Vs_impl.Packet.Seq _ -> base "seq" [ eff ~inst:(i dst) Insert "rcv_buf" ]
      | Vs_impl.Packet.Ack _ ->
          base "ack"
            [
              eff ~inst:(i dst) Read "acked_by"; eff ~inst:(i dst) Write "acked_by";
            ]
      | Vs_impl.Packet.Stable _ ->
          base "stable"
            [
              eff ~inst:(i dst) Read "stable_upto";
              eff ~inst:(i dst) Write "stable_upto";
            ])
  | Stk.Drop { src; dst } ->
      let kinds =
        match Stk.N.head s.Stk.net ~src ~dst with
        | Some p -> [ Stk.N.pkt_kind p ]
        | None -> stack_kinds
      in
      eff Write "faults"
      :: List.map (fun k -> eff ~inst:(ch src dst) Pop ("channel." ^ k)) kinds
  | Stk.Duplicate { src; dst } ->
      let kinds =
        match Stk.N.head s.Stk.net ~src ~dst with
        | Some p -> [ Stk.N.pkt_kind p ]
        | None -> stack_kinds
      in
      eff Write "faults"
      :: List.concat_map
           (fun k ->
             [
               eff ~inst:(ch src dst) Read ("channel." ^ k);
               eff ~inst:(ch src dst) Push ("channel." ^ k);
             ])
           kinds
  | Stk.Reorder { src; dst } ->
      (* rotating the head to the tail perturbs relative order across
         every kind sharing the channel *)
      eff Write "faults"
      :: List.map
           (fun k -> eff ~inst:(ch src dst) Write ("channel." ^ k))
           stack_kinds
  | Stk.Retransmit { src; dst; pkt } ->
      let k = Stk.N.pkt_kind pkt in
      [
        eff ~inst:(i src) Read "cur";
        eff ~inst:(i src) Read "views_seen";
        eff ~inst:(i src) Read "fwd_log";
        eff ~inst:(i src) Read "seq_log";
        eff ~inst:(i src) Read "rcv_buf";
        eff ~inst:(i src) Read "acked_by";
        eff ~inst:(i src) Read "bcast_sent";
        eff ~inst:(i src) Read "next_deliver";
        eff ~inst:(i src) Read "acked_upto";
        eff ~inst:(i src) Read "stable_sent";
        eff ~inst:(ch src dst) Read ("channel." ^ k);
        eff ~inst:(ch src dst) Push ("channel." ^ k);
      ]

(* Families derived from the stack's description (DESIGN.md §13), plus the
   net's channels split into per-kind subsequences, empty ones left out. *)
let stack_project =
  let derived = Check.Record.project Stk.record Check.Codec.string in
  let chan_c = Check.Codec.(pg_map (seqs (Vs_impl.Packet.codec string))) in
  let chan (s : Stk.state) kind =
    let only q =
      let q = Seqs.filter (fun p -> String.equal (Stk.N.pkt_kind p) kind) q in
      if Seqs.is_empty q then None else Some q
    in
    Check.Codec.image chan_c (Pg_map.filter_map (fun _ q -> only q) s.Stk.net.Stk.N.channels)
  in
  fun s -> derived s @ List.map (fun k -> ("channel." ^ k, chan s k)) stack_kinds

(* [~extra_classes] lists the fault/retransmission classes this entry's
   policy can actually fire — the lossless entries omit them, which is
   what makes the send classes eligible there (an adversarial transport
   conflicts with every push, and POR honestly degrades to full
   expansion).  [~invariant_reads] must cover every family the entry's
   invariants or refinement abstraction read. *)
let stack_schema ~(cfg : Stk.config) ~(faults : Vs_impl.Fault.policy)
    ?(extra_classes = []) ?(invariant_reads = []) () :
    (Stk.state, Stk.action) Footprint.schema =
  let fragile = function
    | "createview" | "reconfigure" -> true
    | "gpsnd" -> List.length cfg.Stk.payloads > 1
    | "drop" -> faults.Vs_impl.Fault.drop < 1.0
    | "duplicate" -> faults.Vs_impl.Fault.duplicate < 1.0
    | "reorder" -> faults.Vs_impl.Fault.reorder < 1.0
    | _ -> false
  in
  (* Once the view budget is spent the daemon can issue nothing new, and
     once every created view is fully notified no [cur]/[views_seen]
     write can ever fire again — both monotone, so sound forever in the
     cone of [s].  This is the discharge that lets [send-fwd] (which
     reads [cur]) into ample sets of view-settled states. *)
  let frozen (s : Stk.state) =
    let d = s.Stk.daemon in
    if View.Set.cardinal d.Vs_impl.Daemon.issued < cfg.Stk.max_views then []
    else
      let settled =
        View.Set.for_all
          (fun v ->
            Proc.Set.for_all
              (fun p -> not (Vs_impl.Daemon.can_notify d v p))
              (View.set v))
          (Vs_impl.Daemon.created ~p0:s.Stk.p0 d)
      in
      "issued" :: (if settled then [ "cur"; "views_seen"; "notified" ] else [])
  in
  {
    Footprint.components = stack_components;
    class_of = stack_fine_class;
    classes = stack_protocol_classes @ extra_classes;
    class_foot = stack_class_foot;
    foot = stack_foot;
    fragile;
    visible = (fun c -> List.mem c [ "gpsnd"; "newview"; "gprcv"; "safe" ]);
    serialized =
      (fun c -> List.mem c [ "send-fwd"; "send-seq"; "send-ack"; "send-stable" ]);
    invariant_reads;
    frozen;
    project = stack_project;
  }

(* The stack is *not* equivariant — the sequencer is the least view
   member, so swapping processes 0 and 1 moves the sequencer role — and
   its generator gates reconfiguration/view proposals on the RNG.  The
   declaration is audited ([fp_sym_witness] confirms the breakage); no
   canonicalization is derived from it. *)
let stack_symmetry () : (Stk.state, Stk.action) Symmetry.spec =
  {
    Symmetry.procs = [ 0; 1 ];
    permute = Stk.permute;
    permute_action = Stk.permute_action;
    equivariant = false;
    deterministic = false;
  }

(* Families the engine-level invariants and the stack refinement
   abstraction read: the refinement reconstructs the specification's
   queues from the engine logs and buffers, so an ample action writing
   any of these could hide a step-property violation. *)
let stack_refinement_reads =
  [
    "cur";
    "views_seen";
    "outq";
    "fwd_log";
    "seq_log";
    "rcv_buf";
    "next_deliver";
    "next_safe_e";
    "fwd_seen";
  ]

let vs_stack () =
  let cfg =
    {
      (Stk.default_config ~payloads:[ "a" ] ~universe:2) with
      Stk.max_views = 2;
      max_sends = 1;
    }
  in
  Entry
    {
      name = "vs-stack";
      doc = "VS engine stack (sequencer protocol over partitionable net)";
      max_states = 150_000;
      expected = None;
      cex_seed = [| 0 |];
      subject =
        {
          Analyzer.automaton = Stk.generative_pure cfg;
          init = Stk.initial ~universe:2 ~p0:(Proc.Set.universe 2) ();
          key = Stk.state_key;
          equal_state = Some Stk.equal_state;
          invariants = [];
          pp_state = Stk.pp_state;
          pp_action = Stk.pp_action;
          action_class = stack_action_class;
          (* fault/retransmit classes are absent: under the lossless policy
             those actions are never enabled, so listing them would only
             produce spurious dead-class findings *)
          all_classes =
            [
              "gpsnd";
              "newview";
              "gprcv";
              "safe";
              "createview";
              "reconfigure";
              "send";
              "deliver";
            ];
          complete_classes = [ "newview"; "gprcv"; "safe"; "send"; "deliver" ];
          exact_candidates = true;
          quiescent = None;
          allowed_dead = [];
          check_step = None;
          step_class = "step";
          simplify_action = None;
          layer = "stack";
          generator = "exact; rng-gated view/reconfigure pacing";
          footprint =
            Some (stack_schema ~cfg ~faults:Vs_impl.Fault.none ());
          symmetry = Some (stack_symmetry ());
          codec =
            Check.Codec.make ~id:"vs-stack" ~version:1
              (Stk.codec_state Check.Codec.string);
          instrumented_step = Some (fun sink s a -> Stk.step ~sink s a);
        };
    }

(* ------------------------------------------------------------------ *)
(* VS-IMPL under the adversarial transport (drop + duplicate + reorder) *)
(* ------------------------------------------------------------------ *)

(* Quiescence for the faulty stack: nothing in flight, and every member
   still sharing a view with its sequencer has forwarded, delivered and
   safed everything.  Members stranded in a superseded view (their
   sequencer moved on) are excluded: a packet dropped across a view change
   is unrecoverable by design — the specification's [pending] absorbs it —
   so such states are final but not protocol failures.  Every *incomplete*
   in-view state keeps at least one candidate alive (a first-time send, an
   [Ack]/[Stable] re-offer or a retransmission), which is exactly what the
   deadlock analysis confirms. *)
let stack_quiescent (s : Stk.state) =
  Stk.N.in_flight s.Stk.net = 0
  && Proc.Map.for_all
       (fun _ e ->
         match e.Stk.E.cur with
         | None -> true
         | Some v -> (
             let g = View.id v in
             Seqs.is_empty (Stk.E.outq_of e g)
             &&
             match Proc.Map.find_opt (Stk.E.sequencer v) s.Stk.engines with
             | None -> true
             | Some se -> (
                 match se.Stk.E.cur with
                 | Some v' when View.equal v v' ->
                     let n = Seqs.length (Stk.E.seq_log_of se g) in
                     Stk.E.next_deliver_of e g = n + 1
                     && Stk.E.next_safe_of e g = n + 1
                     && Seqs.length (Stk.E.fwd_log_of e g)
                        = Stk.E.fwd_seen_of se ~src:e.Stk.E.me g
                 | _ -> true)))
       s.Stk.engines

let vs_stack_faulty () =
  (* [max_views = 1]: one view change on top of the implicit v0 keeps the
     stale-packet paths reachable while the complete faulty state space
     stays enumerable (~1.24M states; run with a raised [--max-states] to
     exhaust it — the default bound explores a truncated prefix, which is
     sound for every per-state analysis). *)
  let cfg =
    {
      (Stk.default_config ~payloads:[ "a" ] ~universe:2) with
      Stk.max_views = 1;
      max_sends = 1;
    }
  in
  let faults = Vs_impl.Fault.adversarial () in
  Entry
    {
      name = "vs-stack-faulty";
      doc = "VS engine stack under drop+duplicate+reorder faults";
      max_states = 150_000;
      expected = None;
      cex_seed = [| 0 |];
      subject =
        {
          Analyzer.automaton = Stk.generative_pure cfg;
          init = Stk.initial ~faults ~universe:2 ~p0:(Proc.Set.universe 2) ();
          key = Stk.state_key;
          equal_state = Some Stk.equal_state;
          invariants = [];
          pp_state = Stk.pp_state;
          pp_action = Stk.pp_action;
          action_class = stack_action_class;
          all_classes =
            [
              "gpsnd";
              "newview";
              "gprcv";
              "safe";
              "createview";
              "reconfigure";
              "send";
              "deliver";
              "drop";
              "duplicate";
              "reorder";
              "retransmit";
            ];
          (* the adversarial policy's probabilities are 1.0, so fault and
             retransmission proposals are deterministic and can be
             completeness-checked like the protocol's own actions *)
          complete_classes =
            [
              "newview";
              "gprcv";
              "safe";
              "send";
              "deliver";
              "drop";
              "duplicate";
              "reorder";
              "retransmit";
            ];
          exact_candidates = true;
          quiescent = Some stack_quiescent;
          allowed_dead = [];
          check_step = None;
          step_class = "step";
          simplify_action = None;
          layer = "stack";
          generator = "exact; deterministic fault proposals";
          (* the adversarial classes clash with every channel push, so the
             derived ample sets collapse to full expansion here — the
             footprint analysis still certifies what little independence
             survives, and E16 records the (≈1) ratio honestly *)
          footprint =
            Some
              (stack_schema ~cfg ~faults
                 ~extra_classes:[ "drop"; "duplicate"; "reorder"; "retransmit" ]
                 ());
          symmetry = Some (stack_symmetry ());
          codec =
            Check.Codec.make ~id:"vs-stack-faulty" ~version:1
              (Stk.codec_state Check.Codec.string);
          instrumented_step = Some (fun sink s a -> Stk.step ~sink s a);
        };
    }

(* ------------------------------------------------------------------ *)
(* The full stack: DVS nodes over the VS engine (lib/full_system)      *)
(* ------------------------------------------------------------------ *)

module Full = Full_system.Full_stack.Make (Msg)

let full_stack_class = function
  | Full.Dvs_gpsnd _ -> "dvs-gpsnd"
  | Full.Dvs_register _ -> "dvs-register"
  | Full.Dvs_newview _ -> "dvs-newview"
  | Full.Dvs_gprcv _ -> "dvs-gprcv"
  | Full.Dvs_safe _ -> "dvs-safe"
  | Full.Vs_gpsnd _ -> "vs-gpsnd"
  | Full.Vs_newview _ -> "vs-newview"
  | Full.Vs_gprcv _ -> "vs-gprcv"
  | Full.Vs_safe _ -> "vs-safe"
  | Full.Garbage_collect _ -> "gc"
  | Full.Stk_createview _ -> "stk-createview"
  | Full.Stk_reconfigure _ -> "stk-reconfigure"
  | Full.Stk_send _ -> "stk-send"
  | Full.Stk_deliver _ -> "stk-deliver"

let full_stack_classes =
  [
    "dvs-gpsnd";
    "dvs-register";
    "dvs-newview";
    "dvs-gprcv";
    "dvs-safe";
    "vs-gpsnd";
    "vs-newview";
    "vs-gprcv";
    "vs-safe";
    "gc";
    "stk-createview";
    "stk-reconfigure";
    "stk-send";
    "stk-deliver";
  ]

let full_stack () =
  let cfg =
    {
      (Full.default_config ~payloads:[ "a" ] ~universe:2) with
      Full.max_views = 2;
      max_sends = 1;
      register_probability = 1.0;
    }
  in
  Entry
    {
      name = "full-stack";
      doc = "Full system: VS-TO-DVS nodes over the VS engine stack";
      max_states = 150_000;
      expected = None;
      cex_seed = [| 0 |];
      subject =
        {
          Analyzer.automaton = Full.generative_pure cfg;
          init = Full.initial ~universe:2 ~p0:(Proc.Set.universe 2);
          key = Full.state_key;
          equal_state = Some Full.equal_state;
          invariants = [];
          pp_state = Full.pp_state;
          pp_action = Full.pp_action;
          action_class = full_stack_class;
          all_classes = full_stack_classes;
          complete_classes =
            [
              "dvs-newview";
              "dvs-gprcv";
              "dvs-safe";
              "vs-gpsnd";
              "vs-newview";
              "vs-gprcv";
              "vs-safe";
              "gc";
              "stk-send";
              "stk-deliver";
            ];
          exact_candidates = true;
          quiescent = None;
          allowed_dead = [];
          check_step = None;
          step_class = "step";
          simplify_action = None;
          layer = "full";
          generator = "exact; rng-gated view pacing";
          (* four composed layers share state through the stack; a faithful
             decomposition is future work, so the whole-state schema keeps
             the footprint audit honest and derives no reduction *)
          footprint =
            Some
              (coarse_schema ~classes:full_stack_classes
                 ~class_of:full_stack_class ~key:Full.state_key);
          symmetry = None;
          codec =
            Check.Codec.make ~id:"full-stack" ~version:1
              (Full.codec_state Check.Codec.string);
          instrumented_step = None;
        };
    }

(* NOTE: the TO application over the full engine stack (lib/full_system's
   Full_to) is deliberately not a registry entry: its documented safe-case
   gap (DESIGN.md finding #4) means the Section 6.2 invariants can
   legitimately fail under unrestricted exhaustive scheduling. *)

(* ------------------------------------------------------------------ *)
(* Seeded defects                                                      *)
(* ------------------------------------------------------------------ *)

module Sref = Vs_impl.Stack_refinement.Make (Msg)

(* Per-transition refinement correspondence against the VS spec — how the
   No_dedup variant manifests (a duplicated forward is sequenced twice,
   which orders a message the spec no longer holds pending). *)
let stack_check_step () =
  let r = Sref.refinement () in
  let spec =
    (module Sref.Spec : Ioa.Automaton.S
      with type state = Sref.Spec.state
       and type action = Sref.Spec.action)
  in
  fun step ->
    match Ioa.Refinement.check_step spec r 0 step with
    | Ok () -> Ok ()
    | Error f -> Error (Format.asprintf "%a" Ioa.Refinement.pp_failure f)

(* Conservation of sequenced messages: every entry in a sequencer's log
   corresponds to a distinct accepted forward, so per group the log can
   never outgrow the total forwards sent.  The No_dedup variant violates
   this the moment a duplicated forward is accepted a second time. *)
let stack_seq_bounded =
  Ioa.Invariant.make "ENGINE: sequenced entries bounded by forwards"
    (fun (s : Stk.state) ->
      Proc.Map.for_all
        (fun _ se ->
          Gid.Map.for_all
            (fun g log ->
              let fwds =
                Proc.Map.fold
                  (fun _ e n -> n + Seqs.length (Stk.E.fwd_log_of e g))
                  s.engines 0
              in
              Seqs.length log <= fwds)
            se.Stk.E.seq_log)
        s.engines)

(* Payload normalization for the shrinker's simplification pass: rewrite
   any client send to the configuration's first payload. *)
let stack_simplify cfg = function
  | Stk.Gpsnd (p, m) -> (
      match cfg.Stk.payloads with
      | m0 :: _ when not (Msg.equal m0 m) -> [ Stk.Gpsnd (p, m0) ]
      | _ -> [])
  | _ -> []

(* Environment restriction for the dedup defects: a transport that never
   retransmits.  The engine's deterministic retransmission offers would
   otherwise provide an ungated 5-step duplication path, leaving the BFS
   witness nothing to detour around; with them suppressed (in [enabled]
   too, so the shrinker cannot reintroduce them from its pool), the
   probability-gated [Duplicate] fault is the only duplication mechanism. *)
let suppress_retransmit
    (module A : Ioa.Automaton.GENERATIVE
      with type state = Stk.state
       and type action = Stk.action) =
  (module struct
    include A

    let transport_ok = function Stk.Retransmit _ -> false | _ -> true
    let enabled s a = transport_ok a && A.enabled s a
    let candidates rng s = List.filter transport_ok (A.candidates rng s)
  end : Ioa.Automaton.GENERATIVE
    with type state = Stk.state
     and type action = Stk.action)

(* Seeded-defect entries: engine variants with a known bug, packaged for
   counterexample extraction ([bin/analyze --shrink]) and the committed
   corpus regression in [test/test_corpus.ml].  Not part of [all ()], so
   the @analyze CI gate stays green.  The fault probabilities are
   deliberately below 1: the per-state gate draw then withholds the fault
   proposal at most states, the BFS witness detours around the closed
   gates, and shrinking — which validates by enabledness against the
   salted candidate draws, not by membership in the explored subgraph —
   has real slack to reclaim (DESIGN.md §10). *)
let defect_stack_entry ~name ~doc ~expected ~cex_seed ~faults ?variant
    ~invariants ?check_step ?(step_class = "step") ?quiescent
    ?(no_retransmit_env = false) ?(max_sends = 2) () =
  let cfg =
    {
      (Stk.default_config ~payloads:[ "a" ] ~universe:2) with
      Stk.max_views = 0;
      max_sends;
    }
  in
  let automaton =
    if no_retransmit_env then suppress_retransmit (Stk.generative_pure cfg)
    else Stk.generative_pure cfg
  in
  Entry
    {
      name;
      doc;
      max_states = 50_000;
      expected = Some expected;
      cex_seed;
      subject =
        {
          Analyzer.automaton;
          init =
            Stk.initial ?variant ~faults ~universe:2
              ~p0:(Proc.Set.universe 2) ();
          key = Stk.state_key;
          equal_state = Some Stk.equal_state;
          invariants;
          pp_state = Stk.pp_state;
          pp_action = Stk.pp_action;
          action_class = stack_action_class;
          all_classes =
            [
              "gpsnd";
              "newview";
              "gprcv";
              "safe";
              "createview";
              "reconfigure";
              "send";
              "deliver";
              "drop";
              "duplicate";
              "reorder";
              "retransmit";
            ];
          (* sub-1 probabilities make the fault proposals deliberately
             incomplete and the entry unsuitable for the soundness /
             completeness gate — these entries exist to fail *)
          complete_classes = [];
          exact_candidates = false;
          quiescent;
          allowed_dead = [];
          check_step;
          step_class;
          simplify_action = Some (stack_simplify cfg);
          layer = "stack";
          generator = "over-approx; probability-gated faults";
          footprint =
            Some
              (stack_schema ~cfg ~faults
                 ~extra_classes:
                   ((if faults.Vs_impl.Fault.max_drops > 0 then [ "drop" ]
                     else [])
                   @ (if faults.Vs_impl.Fault.max_duplicates > 0 then
                        [ "duplicate" ]
                      else [])
                   @ (if faults.Vs_impl.Fault.max_reorders > 0 then
                        [ "reorder" ]
                      else [])
                   @
                   if
                     Vs_impl.Fault.is_faulty faults
                     && (not no_retransmit_env)
                     && variant <> Some Stk.E.No_retransmit
                   then [ "retransmit" ]
                   else [])
                 ~invariant_reads:stack_refinement_reads ());
          symmetry = Some (stack_symmetry ());
          codec =
            Check.Codec.make ~id:name ~version:1
              (Stk.codec_state Check.Codec.string);
          instrumented_step = Some (fun sink s a -> Stk.step ~sink s a);
        };
    }

let defect_no_dedup () =
  defect_stack_entry ~name:"defect-no-dedup"
    ~doc:"seeded defect: duplicated forwards accepted twice (refinement)"
    ~expected:(Check.Shrink.Step "refinement") ~cex_seed:[| 14 |]
    ~faults:
      {
        (Vs_impl.Fault.adversarial ~max_drops:0 ~max_reorders:0 ()) with
        Vs_impl.Fault.duplicate = 0.5;
      }
    ~variant:Stk.E.No_dedup ~invariants:[]
    ~check_step:(stack_check_step ()) ~step_class:"refinement"
    ~no_retransmit_env:true ()

let defect_no_retransmit () =
  defect_stack_entry ~name:"defect-no-retransmit"
    ~doc:"seeded defect: dropped packets never retransmitted (deadlock)"
    ~expected:Check.Shrink.Deadlock ~cex_seed:[| 9 |]
    ~faults:
      {
        (Vs_impl.Fault.adversarial ~max_drops:2 ~max_duplicates:1
           ~max_reorders:0 ()) with
        Vs_impl.Fault.drop = 0.5;
        duplicate = 0.5;
      }
    ~variant:Stk.E.No_retransmit ~invariants:[] ~quiescent:stack_quiescent
    ~max_sends:1 ()

let defect_no_dedup_invariant () =
  defect_stack_entry ~name:"defect-no-dedup-invariant"
    ~doc:"seeded defect: duplicate acceptance breaks message conservation"
    ~expected:
      (Check.Shrink.Invariant "ENGINE: sequenced entries bounded by forwards")
    ~cex_seed:[| 25 |]
    ~faults:
      {
        (Vs_impl.Fault.adversarial ~max_drops:0 ~max_reorders:0 ()) with
        Vs_impl.Fault.duplicate = 0.5;
      }
    ~variant:Stk.E.No_dedup
    ~invariants:[ Ioa.Invariant.plain stack_seq_bounded ]
    ~no_retransmit_env:true ()

let defects () =
  [ defect_no_dedup (); defect_no_retransmit (); defect_no_dedup_invariant () ]

let all () =
  [
    vs_spec ();
    dvs_spec ();
    dvs_impl ();
    to_spec ();
    to_impl ();
    vs_stack ();
    vs_stack_faulty ();
    full_stack ();
  ]

let find entries n = List.find_opt (fun (Entry e) -> e.name = n) entries
