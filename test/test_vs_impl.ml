(* Tests for the VS engine (lib/vs_impl) — the sequencer-based implementation
   of the Figure 1 service over an asynchronous partitioned network.

   - Scenario test: a full message round (forward → sequence → deliver →
     ack → stable → safe) in the initial view.
   - Randomized executions (with partitions, view changes, concurrent
     senders): the refinement to the VS specification is checked on every
     step, and the client-visible service guarantees (per-view gap-free
     prefix delivery, safe never overtaking) are checked on traces. *)

open Prelude
module Stk = Vs_impl.Stack.Make (Msg_intf.String_msg)
module Ref_ = Vs_impl.Stack_refinement.Make (Msg_intf.String_msg)
module E = Stk.E

let p0 = Proc.Set.of_list [ 0; 1; 2 ]

let run s a =
  if not (Stk.enabled s a) then
    Alcotest.failf "not enabled: %a" Stk.pp_action a;
  Stk.step s a

let test_message_round () =
  let s = Stk.initial ~universe:3 ~p0 () in
  let g = Gid.g0 in
  (* client send at 1; forward to sequencer 0 *)
  let s = run s (Stk.Gpsnd (1, "hello")) in
  let fwd = Vs_impl.Packet.Fwd { gid = g; fsn = 1; payload = "hello" } in
  let s = run s (Stk.Send { src = 1; dst = 0; pkt = fwd }) in
  let s = run s (Stk.Deliver { src = 1; dst = 0; pkt = fwd }) in
  Alcotest.(check int) "sequenced" 1 (Seqs.length (E.seq_log_of (Stk.engine s 0) g));
  (* sequencer broadcasts to everyone *)
  let seqpkt = Vs_impl.Packet.Seq { gid = g; sn = 1; origin = 1; payload = "hello" } in
  let s =
    List.fold_left
      (fun s dst ->
        let s = run s (Stk.Send { src = 0; dst; pkt = seqpkt }) in
        run s (Stk.Deliver { src = 0; dst; pkt = seqpkt }))
      s [ 0; 1; 2 ]
  in
  (* everyone delivers; safe is not yet enabled *)
  Alcotest.(check bool) "safe premature" false
    (Stk.enabled s (Stk.Safe { src = 1; dst = 2; msg = "hello" }));
  let s =
    List.fold_left
      (fun s dst -> run s (Stk.Gprcv { src = 1; dst; msg = "hello" }))
      s [ 0; 1; 2 ]
  in
  (* acks flow back, stable flows out *)
  let ack = Vs_impl.Packet.Ack { gid = g; upto = 1 } in
  let s =
    List.fold_left
      (fun s src ->
        let s = run s (Stk.Send { src; dst = 0; pkt = ack }) in
        run s (Stk.Deliver { src; dst = 0; pkt = ack }))
      s [ 0; 1; 2 ]
  in
  let stable = Vs_impl.Packet.Stable { gid = g; upto = 1 } in
  let s = run s (Stk.Send { src = 0; dst = 2; pkt = stable }) in
  let s = run s (Stk.Deliver { src = 0; dst = 2; pkt = stable }) in
  (* now process 2 can emit the safe indication *)
  let s = run s (Stk.Safe { src = 1; dst = 2; msg = "hello" }) in
  Alcotest.(check int) "next-safe advanced" 2 (E.next_safe_of (Stk.engine s 2) Gid.g0)

let test_view_change_isolates_messages () =
  let s = Stk.initial ~universe:3 ~p0 () in
  let s = run s (Stk.Gpsnd (1, "old")) in
  (* a view change to {0,1}; the old message was never forwarded *)
  let v1 = View.make ~id:1 ~set:(Proc.Set.of_list [ 0; 1 ]) in
  let s = run s (Stk.Reconfigure [ Proc.Set.of_list [ 0; 1 ]; Proc.Set.singleton 2 ]) in
  let s = run s (Stk.Createview v1) in
  let s = run s (Stk.Newview (v1, 0)) in
  let s = run s (Stk.Newview (v1, 1)) in
  (* process 1 can no longer forward the old message (its view moved on) *)
  Alcotest.(check bool) "old fwd disabled" false
    (Stk.enabled s (Stk.Send { src = 1; dst = 0; pkt = Vs_impl.Packet.Fwd { gid = Gid.g0; fsn = 1; payload = "old" } }));
  (* messages sent now go to view 1 *)
  let s = run s (Stk.Gpsnd (1, "new")) in
  Alcotest.(check int) "queued under view 1" 1
    (Seqs.length (E.outq_of (Stk.engine s 1) 1))

(* ------------------------------------------------------------------ *)
(* Randomized executions + refinement + service guarantees             *)
(* ------------------------------------------------------------------ *)

let make_exec ~seed ~steps ~universe =
  let rng = Random.State.make [| seed |] in
  let rng_views = Random.State.make [| seed + 1000 |] in
  let cfg = Stk.default_config ~payloads:[ "a"; "b" ] ~universe in
  let gen = Stk.generative cfg ~rng_views in
  let init = Stk.initial ~universe ~p0:(Proc.Set.universe universe) () in
  fst (Ioa.Exec.run gen ~rng ~steps ~init)

let test_random_refinement () =
  for seed = 1 to 25 do
    let exec = make_exec ~seed ~steps:500 ~universe:3 in
    match Ref_.check ~p0:(Proc.Set.universe 3) exec with
    | Ok () -> ()
    | Error f -> Alcotest.failf "seed %d: %a" seed Ioa.Refinement.pp_failure f
  done

let test_random_not_vacuous () =
  let interesting = ref 0 and total_safes = ref 0 in
  for seed = 1 to 15 do
    let exec = make_exec ~seed ~steps:600 ~universe:3 in
    let final = Ioa.Exec.last exec in
    let deliveries =
      List.length
        (List.filter (function Stk.Gprcv _ -> true | _ -> false)
           (Ioa.Exec.actions exec))
    in
    total_safes :=
      !total_safes
      + List.length
          (List.filter (function Stk.Safe _ -> true | _ -> false)
             (Ioa.Exec.actions exec));
    if
      deliveries >= 3
      && View.Set.cardinal final.Stk.daemon.Vs_impl.Daemon.issued >= 1
    then incr interesting
  done;
  Alcotest.(check bool) "most runs deliver through view changes" true
    (!interesting >= 8);
  Alcotest.(check bool) "safe indications occur" true (!total_safes >= 1)

(* service guarantee: per destination and view, deliveries are a gap-free
   prefix of the sequencer's order, identical across receivers *)
let test_random_delivery_prefix () =
  for seed = 30 to 50 do
    let exec = make_exec ~seed ~steps:500 ~universe:3 in
    let per_dst =
      List.fold_left
        (fun acc (st : (Stk.state, Stk.action) Ioa.Exec.step) ->
          match st.Ioa.Exec.action with
          | Stk.Gprcv { src; dst; msg } ->
              (* record under the receiver's view at delivery time *)
              let g =
                match (Stk.engine st.Ioa.Exec.pre dst).E.cur with
                | Some v -> View.id v
                | None -> Alcotest.fail "delivery without view"
              in
              let key = (dst, g) in
              Pg_map.add key
                ((msg, src) :: Pg_map.find_or ~default:[] key acc)
                acc
          | _ -> acc)
        Pg_map.empty exec.Ioa.Exec.steps
    in
    (* group by view and compare pairwise *)
    let views =
      Pg_map.fold (fun (_, g) _ acc -> Gid.Set.add g acc) per_dst Gid.Set.empty
    in
    Gid.Set.iter
      (fun g ->
        let seqs =
          Pg_map.fold
            (fun (_, g') l acc ->
              if Gid.equal g g' then Seqs.of_list (List.rev l) :: acc else acc)
            per_dst []
        in
        let eq (m, p) (m', p') = String.equal m m' && Proc.equal p p' in
        if not (Seqs.consistent ~equal:eq seqs) then
          Alcotest.failf "seed %d: view %a receivers disagree" seed Gid.pp g)
      views
  done

(* the six classical VS-layer guarantees, checked on the real engine's runs *)
let stack_events (exec : (Stk.state, Stk.action) Ioa.Exec.t) =
  List.filter_map
    (fun (st : (Stk.state, Stk.action) Ioa.Exec.step) ->
      match st.Ioa.Exec.action with
      | Stk.Newview (view, p) -> Some (Vs.Vs_props.Viewed { p; view })
      | Stk.Gpsnd (p, msg) -> (
          match (Stk.engine st.Ioa.Exec.pre p).E.cur with
          | Some v -> Some (Vs.Vs_props.Sent { p; gid = View.id v; msg })
          | None -> None)
      | Stk.Gprcv { src; dst; msg } -> (
          match (Stk.engine st.Ioa.Exec.pre dst).E.cur with
          | Some v ->
              Some (Vs.Vs_props.Delivered { src; dst; gid = View.id v; msg })
          | None -> None)
      | _ -> None)
    exec.Ioa.Exec.steps

let test_classical_guarantees_on_engine () =
  for seed = 60 to 80 do
    let exec = make_exec ~seed ~steps:500 ~universe:3 in
    let report = Vs.Vs_props.examine ~equal:String.equal (stack_events exec) in
    if not (Vs.Vs_props.holds report) then
      Alcotest.failf "seed %d: %a" seed Vs.Vs_props.pp_report report
  done

(* ------------------------------------------------------------------ *)
(* Golden regression: the fault machinery must leave lossless runs      *)
(* byte-for-byte unchanged                                              *)
(* ------------------------------------------------------------------ *)

(* A compact fingerprint of one action, stable across refactors of the
   pretty-printers.  The [Fwd] case deliberately ignores the forward
   sequence number: the digests below were captured before [fsn] existed,
   and on a lossless transport the field is redundant (FIFO order). *)
let action_fingerprint =
  let ptag : string Vs_impl.Packet.t -> string = function
    | Vs_impl.Packet.Fwd { gid; payload; _ } ->
        Format.asprintf "F%a%s" Gid.pp gid payload
    | Vs_impl.Packet.Seq { gid; sn; origin; payload } ->
        Format.asprintf "Q%a%d%d%s" Gid.pp gid sn origin payload
    | Vs_impl.Packet.Ack { gid; upto } -> Format.asprintf "A%a%d" Gid.pp gid upto
    | Vs_impl.Packet.Stable { gid; upto } ->
        Format.asprintf "S%a%d" Gid.pp gid upto
  in
  function
  | Stk.Gpsnd (p, m) -> Printf.sprintf "g%d%s" p m
  | Stk.Newview (v, p) -> Format.asprintf "n%a%d" View.pp v p
  | Stk.Gprcv { src; dst; msg } -> Printf.sprintf "r%d%d%s" src dst msg
  | Stk.Safe { src; dst; msg } -> Printf.sprintf "f%d%d%s" src dst msg
  | Stk.Createview v -> Format.asprintf "c%a" View.pp v
  | Stk.Reconfigure comps -> Printf.sprintf "R%d" (List.length comps)
  | Stk.Send { src; dst; pkt } -> Printf.sprintf "s%d%d%s" src dst (ptag pkt)
  | Stk.Deliver { src; dst; pkt } -> Printf.sprintf "d%d%d%s" src dst (ptag pkt)
  | Stk.Drop { src; dst } -> Printf.sprintf "D%d%d" src dst
  | Stk.Duplicate { src; dst } -> Printf.sprintf "U%d%d" src dst
  | Stk.Reorder { src; dst } -> Printf.sprintf "O%d%d" src dst
  | Stk.Retransmit { src; dst; pkt } ->
      Printf.sprintf "t%d%d%s" src dst (ptag pkt)

(* Captured at the pre-fault-model HEAD with the same seeds, configs and
   fingerprint.  A digest mismatch means the fault machinery perturbed a
   lossless execution — an rng draw, a changed candidate order, a changed
   enabledness — which the default-policy contract forbids. *)
let test_lossless_golden_digests () =
  List.iter
    (fun (seed, steps, universe, len, md5) ->
      let exec = make_exec ~seed ~steps ~universe in
      let digest =
        String.concat "."
          (List.map action_fingerprint (Ioa.Exec.actions exec))
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d length" seed)
        len (Ioa.Exec.length exec);
      Alcotest.(check string)
        (Printf.sprintf "seed %d digest" seed)
        md5
        (Digest.to_hex (Digest.string digest)))
    [
      (1, 200, 3, 200, "66e94f778e680329c9366725696c84c4");
      (2, 200, 3, 127, "cf583bf01a7195b716e313c527c0c4d4");
      (7, 300, 2, 157, "6cc2fe785999b89069d6f089da634e66");
      (42, 400, 3, 235, "b1e90f7eedcebc493f9618447dc0ae28");
    ]

(* ------------------------------------------------------------------ *)
(* Adversarial transport: exhaustive refinement under faults            *)
(* ------------------------------------------------------------------ *)

let spec_automaton =
  (module Ref_.Spec : Ioa.Automaton.S
    with type state = Ref_.Spec.state
     and type action = Ref_.Spec.action)

(* Exhaustively explore the n=2 stack under a given policy and variant,
   checking the refinement to Figure 1 on every transition and auditing
   the dedup key against full state equality. *)
let explore_faulty ?variant ?(max_views = 0) ?(max_states = 200_000) ~faults ()
    =
  let cfg =
    {
      (Stk.default_config ~payloads:[ "a" ] ~universe:2) with
      Stk.max_views;
      max_sends = 1;
    }
  in
  let metrics = Obs.Metrics.create () in
  let gen = Stk.generative ~metrics cfg ~rng_views:(Random.State.make [| 42 |]) in
  let init =
    Stk.initial ~faults ?variant ~universe:2 ~p0:(Proc.Set.universe 2) ()
  in
  let r = Ref_.refinement () in
  let check_step step =
    match Ioa.Refinement.check_step spec_automaton r 0 step with
    | Ok () -> Ok ()
    | Error f -> Error (Format.asprintf "%a" Ioa.Refinement.pp_failure f)
  in
  let outcome =
    Check.Explorer.run gen ~key:Stk.state_key ~invariants:[] ~check_step
      ~check_key:Stk.equal_state ~max_states ~metrics ~init ()
  in
  (outcome, metrics)

(* The complete adversarial space at n=2 in the initial view (~131k
   states): drop + duplicate + reorder, one budget unit each.  A deeper
   configuration with a view change (~1.24M states) also explores to
   completion with the refinement passing, but is too slow for tier-1;
   the CI soak and the [vs-stack-faulty] registry entry cover it. *)
let test_faulty_exhaustive_refinement () =
  let outcome, metrics =
    explore_faulty ~faults:(Vs_impl.Fault.adversarial ()) ()
  in
  (match outcome.Check.Explorer.violation with
  | None -> ()
  | Some v -> Alcotest.failf "invariant violation: %s" v.Ioa.Invariant.invariant);
  (match outcome.Check.Explorer.step_failure with
  | None -> ()
  | Some (_, msg) -> Alcotest.failf "refinement step failed: %s" msg);
  (match outcome.Check.Explorer.key_clash with
  | None -> ()
  | Some _ -> Alcotest.fail "state key not injective under faults");
  Alcotest.(check bool) "not truncated" false
    outcome.Check.Explorer.stats.Check.Explorer.truncated;
  Alcotest.(check bool) "faults actually injected" true
    (Obs.Metrics.count metrics "net.dropped" > 0
    && Obs.Metrics.count metrics "net.duplicated" > 0
    && Obs.Metrics.count metrics "net.reordered" > 0);
  Alcotest.(check bool) "retransmissions exercised" true
    (Obs.Metrics.count metrics "net.retransmits" > 0);
  Alcotest.(check bool) "duplicates suppressed" true
    (Obs.Metrics.count metrics "engine.dups_dropped" > 0)

(* Seeded defect: an engine that accepts every forward (broken watermark)
   sequences a duplicated [Fwd] twice, which the refinement catches — the
   second sequencing has no abstract [pending] entry to consume. *)
let test_no_dedup_defect_caught () =
  let outcome, _ =
    explore_faulty ~variant:Stk.E.No_dedup
      ~faults:(Vs_impl.Fault.adversarial ())
      ()
  in
  match outcome.Check.Explorer.step_failure with
  | Some _ -> ()
  | None ->
      Alcotest.fail
        "broken dedup watermark escaped the exhaustive refinement check"

(* [delivered_prefix] cuts (g, 1 .. upto) out of [rcv_buf]; the reference
   definition looks up each position 1 .. next_deliver - 1.  Random
   buffers with gaps, other views' entries and positions outside the
   delivered range, plus random next_deliver marks, must agree. *)
let prop_delivered_prefix =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_bound 60)
           (triple (int_range 0 3) (int_range (-2) 30) (int_range 0 2)))
        (pair (list_size (int_bound 4) (pair (int_range 0 3) (int_range 1 35)))
           (int_range 0 4)))
  in
  QCheck.Test.make ~count:500 ~name:"delivered_prefix = per-position lookups"
    (QCheck.make gen) (fun (entries, (marks, g)) ->
      let st = E.initial ~p0 0 in
      let st =
        {
          st with
          E.rcv_buf =
            List.fold_left
              (fun m (g, sn, o) ->
                Pg_map.add (g, sn) (Printf.sprintf "m%d.%d" g sn, o) m)
              Pg_map.empty entries;
          next_deliver =
            List.fold_left
              (fun m (g, n) -> Gid.Map.add g n m)
              Gid.Map.empty marks;
        }
      in
      let upto = E.next_deliver_of st g - 1 in
      let reference =
        List.init upto (fun i -> Pg_map.find_opt (g, i + 1) st.E.rcv_buf)
        |> List.filter_map Fun.id
      in
      E.delivered_prefix st g = reference)

(* [own_sequenced] cuts view g's entries out of [rcv_buf]; the reference
   folds over the whole buffer.  Random buffers with other views'
   entries, every origin, and positions at the extremes of int (the
   split keys' own bindings), must agree. *)
let prop_own_sequenced =
  let sn = QCheck.Gen.(oneof [ int_range (-2) 30; oneofl [ min_int; max_int ] ]) in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_bound 60) (triple (int_range 0 3) sn (int_range 0 2)))
        (pair (int_range 0 2) (int_range 0 4)))
  in
  QCheck.Test.make ~count:500 ~name:"own_sequenced = whole-buffer fold"
    (QCheck.make gen) (fun (entries, (me, g)) ->
      let st = E.initial ~p0 me in
      let st =
        {
          st with
          E.rcv_buf =
            List.fold_left
              (fun m (g, sn, o) -> Pg_map.add (g, sn) (Printf.sprintf "m%d" sn, o) m)
              Pg_map.empty entries;
        }
      in
      let reference =
        Pg_map.fold
          (fun (g', _) (_, origin) n ->
            if Gid.equal g' g && Proc.equal origin me then n + 1 else n)
          st.E.rcv_buf 0
      in
      E.own_sequenced st g = reference)

(* [retire] drops the views below the current one and changes nothing
   the current view's behaviour reads: over random executions with view
   changes, every engine state and its retired form agree on the
   current view's outputs and delivered prefix, and on every send of a
   view not below it. *)
let test_retire_keeps_current_view () =
  let retired_some = ref 0 in
  let not_below cur sends =
    List.filter
      (fun (_, pkt) -> Gid.ge (Vs_impl.Packet.gid pkt) cur)
      sends
  in
  for seed = 1 to 10 do
    let exec = make_exec ~seed ~steps:400 ~universe:3 in
    List.iter
      (fun (s : Stk.state) ->
        List.iter
          (fun p ->
            let e = Stk.engine s p in
            match e.E.cur with
            | None -> ()
            | Some v ->
                let g = View.id v and r = E.retire e in
                if Gid.Map.cardinal r.E.views_seen < Gid.Map.cardinal e.E.views_seen
                then incr retired_some;
                let same what a b =
                  if a <> b then Alcotest.failf "seed %d, p%d: %s differs" seed p what
                in
                same "fwd_send" (E.fwd_send e) (E.fwd_send r);
                same "retransmit_sends" (E.retransmit_sends e) (E.retransmit_sends r);
                same "deliverable" (E.deliverable e) (E.deliverable r);
                same "safe_ready" (E.safe_ready e) (E.safe_ready r);
                same "delivered_prefix" (E.delivered_prefix e g) (E.delivered_prefix r g);
                same "bcast_sends" (not_below g (E.bcast_sends e)) (E.bcast_sends r);
                same "ack_sends" (not_below g (E.ack_sends e)) (E.ack_sends r);
                same "stable_sends" (not_below g (E.stable_sends e)) (E.stable_sends r))
          [ 0; 1; 2 ])
      (Ioa.Exec.states exec)
  done;
  Alcotest.(check bool) "some states had views to retire" true (!retired_some > 100)

let () =
  Alcotest.run "vs-impl"
    [
      ( "scenarios",
        [
          Alcotest.test_case "message round" `Quick test_message_round;
          Alcotest.test_case "view change isolates" `Quick test_view_change_isolates_messages;
        ] );
      ( "random",
        [
          Alcotest.test_case "refinement to Figure 1" `Quick test_random_refinement;
          Alcotest.test_case "not vacuous" `Quick test_random_not_vacuous;
          Alcotest.test_case "per-view delivery prefix" `Quick test_random_delivery_prefix;
          Alcotest.test_case "classical guarantees on the engine" `Quick
            test_classical_guarantees_on_engine;
          QCheck_alcotest.to_alcotest prop_delivered_prefix;
          QCheck_alcotest.to_alcotest prop_own_sequenced;
          Alcotest.test_case "retire keeps the current view" `Quick
            test_retire_keeps_current_view;
        ] );
      ( "faults",
        [
          Alcotest.test_case "lossless golden digests" `Quick
            test_lossless_golden_digests;
          Alcotest.test_case "exhaustive refinement under faults" `Slow
            test_faulty_exhaustive_refinement;
          Alcotest.test_case "broken dedup caught" `Slow
            test_no_dedup_defect_caught;
        ] );
    ]
