(* Tests for the mathematical prelude (paper Section 2): sequences-as-queues,
   prefix/lub algebra, views, labels and summaries. *)

open Prelude

let seq_of_list = Seqs.of_list
let eq_int = Int.equal

(* ------------------------------------------------------------------ *)
(* Seqs unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let test_empty () =
  Alcotest.(check bool) "empty is empty" true (Seqs.is_empty Seqs.empty);
  Alcotest.(check int) "length 0" 0 (Seqs.length Seqs.empty);
  Alcotest.(check bool) "head_opt none" true (Seqs.head_opt Seqs.empty = None)

let test_append_head () =
  let s = seq_of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "length" 3 (Seqs.length s);
  Alcotest.(check int) "head" 1 (Seqs.head s);
  Alcotest.(check int) "nth1 2" 2 (Seqs.nth1 s 2);
  Alcotest.(check int) "nth1 3" 3 (Seqs.nth1 s 3);
  let s' = Seqs.append s 4 in
  Alcotest.(check int) "appended" 4 (Seqs.nth1 s' 4);
  Alcotest.(check int) "original unchanged" 3 (Seqs.length s)

let test_remove_head () =
  let s = seq_of_list [ 1; 2; 3 ] in
  let s' = Seqs.remove_head s in
  Alcotest.(check (list int)) "tail" [ 2; 3 ] (Seqs.to_list s');
  Alcotest.check_raises "remove on empty" (Invalid_argument "Seqs.remove_head: empty sequence")
    (fun () -> ignore (Seqs.remove_head Seqs.empty))

let test_queue_discipline () =
  (* interleave appends and removes; compare against a reference list *)
  let ops = [ `A 1; `A 2; `R; `A 3; `R; `A 4; `A 5; `R ] in
  let final, reference =
    List.fold_left
      (fun (s, l) op ->
        match op with
        | `A x -> (Seqs.append s x, l @ [ x ])
        | `R -> (Seqs.remove_head s, List.tl l))
      (Seqs.empty, []) ops
  in
  Alcotest.(check (list int)) "queue behaves like list" reference (Seqs.to_list final)

let test_sub1 () =
  let s = seq_of_list [ 10; 20; 30; 40 ] in
  Alcotest.(check (list int)) "middle" [ 20; 30 ] (Seqs.to_list (Seqs.sub1 s 2 3));
  Alcotest.(check (list int)) "whole" [ 10; 20; 30; 40 ] (Seqs.to_list (Seqs.sub1 s 1 4));
  Alcotest.(check (list int)) "empty i>j" [] (Seqs.to_list (Seqs.sub1 s 3 2));
  Alcotest.(check (list int)) "empty at 1..0" [] (Seqs.to_list (Seqs.sub1 s 1 0))

let test_prefix () =
  let a = seq_of_list [ 1; 2 ] and b = seq_of_list [ 1; 2; 3 ] in
  Alcotest.(check bool) "a ≤ b" true (Seqs.is_prefix ~equal:eq_int a ~of_:b);
  Alcotest.(check bool) "b ≰ a" false (Seqs.is_prefix ~equal:eq_int b ~of_:a);
  Alcotest.(check bool) "λ ≤ a" true (Seqs.is_prefix ~equal:eq_int Seqs.empty ~of_:a);
  Alcotest.(check bool) "a ≤ a" true (Seqs.is_prefix ~equal:eq_int a ~of_:a);
  let c = seq_of_list [ 1; 9 ] in
  Alcotest.(check bool) "mismatch" false (Seqs.is_prefix ~equal:eq_int c ~of_:b)

let test_consistent_lub () =
  let a = seq_of_list [ 1 ] and b = seq_of_list [ 1; 2 ] and c = seq_of_list [ 1; 2; 3 ] in
  Alcotest.(check bool) "chain consistent" true (Seqs.consistent ~equal:eq_int [ a; b; c ]);
  Alcotest.(check (list int)) "lub is longest" [ 1; 2; 3 ]
    (Seqs.to_list (Seqs.lub ~equal:eq_int [ a; c; b ]));
  let d = seq_of_list [ 2 ] in
  Alcotest.(check bool) "fork inconsistent" false (Seqs.consistent ~equal:eq_int [ a; d ])

let test_filter_count () =
  let s = seq_of_list [ 1; 2; 3; 4; 5; 6 ] in
  let even x = x mod 2 = 0 in
  Alcotest.(check (list int)) "filter" [ 2; 4; 6 ] (Seqs.to_list (Seqs.filter even s));
  Alcotest.(check int) "count" 3 (Seqs.count even s);
  Alcotest.(check (list int)) "applytoall" [ 2; 4; 6; 8; 10; 12 ]
    (Seqs.to_list (Seqs.applytoall (fun x -> 2 * x) s))

(* ------------------------------------------------------------------ *)
(* Seqs property tests (qcheck)                                        *)
(* ------------------------------------------------------------------ *)

let qcheck_case = QCheck_alcotest.to_alcotest

let prop_roundtrip =
  QCheck.Test.make ~name:"of_list/to_list roundtrip" ~count:500
    QCheck.(list small_int)
    (fun l -> Seqs.to_list (Seqs.of_list l) = l)

let prop_concat_length =
  QCheck.Test.make ~name:"length (a + b) = |a| + |b|" ~count:500
    QCheck.(pair (list small_int) (list small_int))
    (fun (a, b) ->
      Seqs.length (Seqs.concat (Seqs.of_list a) (Seqs.of_list b))
      = List.length a + List.length b)

let prop_concat_assoc =
  QCheck.Test.make ~name:"concat associative" ~count:300
    QCheck.(triple (list small_int) (list small_int) (list small_int))
    (fun (a, b, c) ->
      let s = Seqs.of_list in
      Seqs.to_list (Seqs.concat (Seqs.concat (s a) (s b)) (s c))
      = Seqs.to_list (Seqs.concat (s a) (Seqs.concat (s b) (s c))))

let prop_prefix_concat =
  QCheck.Test.make ~name:"a ≤ a + b" ~count:500
    QCheck.(pair (list small_int) (list small_int))
    (fun (a, b) ->
      let sa = Seqs.of_list a in
      Seqs.is_prefix ~equal:eq_int sa ~of_:(Seqs.concat sa (Seqs.of_list b)))

let prop_prefix_antisym =
  QCheck.Test.make ~name:"prefix antisymmetry" ~count:500
    QCheck.(pair (list small_int) (list small_int))
    (fun (a, b) ->
      let sa = Seqs.of_list a and sb = Seqs.of_list b in
      if
        Seqs.is_prefix ~equal:eq_int sa ~of_:sb
        && Seqs.is_prefix ~equal:eq_int sb ~of_:sa
      then a = b
      else true)

let prop_lub_upper_bound =
  (* size-bounded: building all prefixes is quadratic in the list length *)
  QCheck.Test.make ~name:"lub is an upper bound of a chain" ~count:300
    QCheck.(list_of_size Gen.(0 -- 25) small_int)
    (fun l ->
      (* build the chain of all prefixes of l *)
      let prefixes =
        List.init
          (List.length l + 1)
          (fun k -> Seqs.of_list (List.filteri (fun i _ -> i < k) l))
      in
      let lub = Seqs.lub ~equal:eq_int prefixes in
      List.for_all (fun p -> Seqs.is_prefix ~equal:eq_int p ~of_:lub) prefixes)

let prop_common_prefix =
  QCheck.Test.make ~name:"common_prefix: a prefix of all, and maximal" ~count:300
    QCheck.(triple (list_of_size Gen.(0 -- 12) small_int)
              (list_of_size Gen.(0 -- 12) small_int)
              (list_of_size Gen.(0 -- 12) small_int))
    (fun (a, b, c) ->
      let seqs = List.map Seqs.of_list [ a; b; c ] in
      let cp = Seqs.common_prefix ~equal:Int.equal seqs in
      let is_prefix_of_all p =
        List.for_all (fun s -> Seqs.is_prefix ~equal:Int.equal p ~of_:s) seqs
      in
      is_prefix_of_all cp
      && (Seqs.length cp = List.length a
         || not
              (is_prefix_of_all
                 (Seqs.sub1 (Seqs.of_list a) 1 (Seqs.length cp + 1)))))

let prop_nth_monotone_offsets =
  QCheck.Test.make ~name:"indexing survives remove_head" ~count:300
    QCheck.(list_of_size Gen.(1 -- 20) small_int)
    (fun l ->
      let s = Seqs.of_list l in
      match l with
      | [] -> true
      | _ :: tl ->
          let s' = Seqs.remove_head s in
          List.for_all2 Int.equal (Seqs.to_list s') tl)

(* [iter] and [fold_left] walk the slot map directly; after any mix of
   appends and head removals they must visit exactly [to_list]'s
   elements, in its order. *)
let prop_traversals_match_to_list =
  QCheck.Test.make ~name:"iter/fold_left agree with to_list" ~count:500
    QCheck.(list (option small_int))
    (fun ops ->
      let s =
        List.fold_left
          (fun s -> function
            | Some x -> Seqs.append s x
            | None -> if Seqs.is_empty s then s else Seqs.remove_head s)
          Seqs.empty ops
      in
      let via_iter = ref [] in
      Seqs.iter (fun x -> via_iter := x :: !via_iter) s;
      let via_fold = Seqs.fold_left (fun acc x -> x :: acc) [] s in
      let expected = Seqs.to_list s in
      List.rev !via_iter = expected && List.rev via_fold = expected)

(* ------------------------------------------------------------------ *)
(* Proc / Gid / View                                                   *)
(* ------------------------------------------------------------------ *)

let test_universe () =
  Alcotest.(check int) "size" 5 (Proc.Set.cardinal (Proc.Set.universe 5));
  Alcotest.(check bool) "has 0" true (Proc.Set.mem 0 (Proc.Set.universe 5));
  Alcotest.(check bool) "no 5" false (Proc.Set.mem 5 (Proc.Set.universe 5))

let test_majority () =
  let whole = Proc.Set.of_list [ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "3 of 4 majority" true
    (Proc.Set.majority_of ~part:(Proc.Set.of_list [ 0; 1; 2 ]) ~whole);
  Alcotest.(check bool) "2 of 4 not majority" false
    (Proc.Set.majority_of ~part:(Proc.Set.of_list [ 0; 1 ]) ~whole);
  Alcotest.(check bool) "2 of 3 majority" true
    (Proc.Set.majority_of
       ~part:(Proc.Set.of_list [ 0; 1 ])
       ~whole:(Proc.Set.of_list [ 0; 1; 2 ]));
  Alcotest.(check bool) "disjoint part never majority" false
    (Proc.Set.majority_of ~part:(Proc.Set.of_list [ 7; 8; 9 ]) ~whole)

let test_nonempty_subsets () =
  let subs = Proc.Set.nonempty_subsets (Proc.Set.of_list [ 0; 1; 2 ]) in
  Alcotest.(check int) "2^3 - 1 subsets" 7 (List.length subs);
  Alcotest.(check bool) "all non-empty" true
    (List.for_all (fun s -> not (Proc.Set.is_empty s)) subs)

let test_view_basics () =
  let v = View.make ~id:3 ~set:(Proc.Set.of_list [ 0; 1; 2 ]) in
  Alcotest.(check int) "id" 3 (View.id v);
  Alcotest.(check int) "cardinal" 3 (View.cardinal v);
  Alcotest.(check bool) "mem" true (View.mem 1 v);
  Alcotest.check_raises "empty membership rejected"
    (Invalid_argument "View.make: empty membership set") (fun () ->
      ignore (View.make ~id:1 ~set:Proc.Set.empty))

let test_view_intersection () =
  let mk id l = View.make ~id ~set:(Proc.Set.of_list l) in
  let v = mk 1 [ 0; 1; 2 ] and w = mk 2 [ 2; 3; 4 ] in
  Alcotest.(check bool) "intersects" true (View.intersects v w);
  Alcotest.(check bool) "1 of 3 not majority" false (View.majority_intersects v ~of_:w);
  let u = mk 3 [ 2; 3 ] in
  Alcotest.(check bool) "2 of 3 majority" true (View.majority_intersects u ~of_:w)

let test_gid_bot () =
  Alcotest.(check bool) "⊥ < any" true (Gid.Bot.lt_gid Gid.Bot.bot Gid.g0);
  Alcotest.(check bool) "g0 < g1" true (Gid.Bot.lt_gid (Gid.Bot.of_gid Gid.g0) (Gid.succ Gid.g0));
  Alcotest.(check bool) "g1 ≮ g1" false
    (Gid.Bot.lt_gid (Gid.Bot.of_gid (Gid.succ Gid.g0)) (Gid.succ Gid.g0))

(* ------------------------------------------------------------------ *)
(* Labels and summaries                                                *)
(* ------------------------------------------------------------------ *)

let test_label_order () =
  let l1 = Label.make ~id:1 ~seqno:1 ~origin:0 in
  let l2 = Label.make ~id:1 ~seqno:1 ~origin:1 in
  let l3 = Label.make ~id:1 ~seqno:2 ~origin:0 in
  let l4 = Label.make ~id:2 ~seqno:1 ~origin:0 in
  Alcotest.(check bool) "origin breaks tie" true (Label.compare l1 l2 < 0);
  Alcotest.(check bool) "seqno before origin" true (Label.compare l2 l3 < 0);
  Alcotest.(check bool) "id dominates" true (Label.compare l3 l4 < 0);
  Alcotest.check_raises "seqno positive" (Invalid_argument "Label.make: seqno must be positive")
    (fun () -> ignore (Label.make ~id:1 ~seqno:0 ~origin:0))

let summary con ord next high =
  Summary.make
    ~con:(List.fold_left (fun m (l, a) -> Label.Map.add l a m) Label.Map.empty con)
    ~ord:(Seqs.of_list ord) ~next ~high

let test_gotstate_functions () =
  let l1 = Label.make ~id:1 ~seqno:1 ~origin:0 in
  let l2 = Label.make ~id:1 ~seqno:1 ~origin:1 in
  let l3 = Label.make ~id:1 ~seqno:2 ~origin:1 in
  let x0 = summary [ (l1, "a"); (l2, "b") ] [ l1; l2 ] 2 1 in
  let x1 = summary [ (l2, "b"); (l3, "c") ] [ l2 ] 1 2 in
  let y = Proc.Map.(add 0 x0 (add 1 x1 empty)) in
  Alcotest.(check int) "maxprimary" 2 (Summary.maxprimary y);
  Alcotest.(check int) "maxnextconfirm" 2 (Summary.maxnextconfirm y);
  Alcotest.(check int) "knowncontent size" 3 (Label.Map.cardinal (Summary.knowncontent y));
  Alcotest.(check int) "chosenrep = highest-high member" 1 (Summary.chosenrep y);
  Alcotest.(check bool) "reps" true (Proc.Set.equal (Summary.reps y) (Proc.Set.singleton 1));
  let fo = Summary.fullorder y in
  (* shortorder = [l2]; remaining labels of knowncontent in label order *)
  Alcotest.(check int) "fullorder covers all content" 3 (Seqs.length fo);
  Alcotest.(check bool) "fullorder starts with shortorder" true
    (Label.equal (Seqs.nth1 fo 1) l2);
  (* remaining in label order: l1 < l3 *)
  Alcotest.(check bool) "rest in label order" true
    (Label.equal (Seqs.nth1 fo 2) l1 && Label.equal (Seqs.nth1 fo 3) l3)

let prop_fullorder_complete =
  (* fullorder always enumerates exactly dom(knowncontent) when shortorder is
     a subset of the content *)
  let gen =
    QCheck.Gen.(
      let label =
        map3
          (fun id seqno origin -> Label.make ~id ~seqno:(1 + seqno) ~origin)
          (0 -- 3) (0 -- 5) (0 -- 3)
      in
      let entry = map (fun l -> (l, "m")) label in
      list_size (1 -- 10) entry)
  in
  QCheck.Test.make ~name:"fullorder enumerates knowncontent" ~count:300
    (QCheck.make gen) (fun entries ->
      let con =
        List.fold_left (fun m (l, a) -> Label.Map.add l a m) Label.Map.empty entries
      in
      let labels = List.map fst (Label.Map.bindings con) in
      let k = List.length labels / 2 in
      let ord = Seqs.of_list (List.filteri (fun i _ -> i < k) labels) in
      let x = Summary.make ~con ~ord ~next:1 ~high:0 in
      let y = Proc.Map.singleton 0 x in
      let fo = Summary.fullorder y in
      Seqs.length fo = Label.Map.cardinal con
      && Label.Map.for_all (fun l _ -> Seqs.mem ~equal:Label.equal l fo) con)

let () =
  Alcotest.run "prelude"
    [
      ( "seqs",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "append/head/nth" `Quick test_append_head;
          Alcotest.test_case "remove_head" `Quick test_remove_head;
          Alcotest.test_case "queue discipline" `Quick test_queue_discipline;
          Alcotest.test_case "sub1" `Quick test_sub1;
          Alcotest.test_case "prefix" `Quick test_prefix;
          Alcotest.test_case "consistent/lub" `Quick test_consistent_lub;
          Alcotest.test_case "filter/count/applytoall" `Quick test_filter_count;
          qcheck_case prop_roundtrip;
          qcheck_case prop_concat_length;
          qcheck_case prop_concat_assoc;
          qcheck_case prop_prefix_concat;
          qcheck_case prop_prefix_antisym;
          qcheck_case prop_lub_upper_bound;
          qcheck_case prop_common_prefix;
          qcheck_case prop_nth_monotone_offsets;
          qcheck_case prop_traversals_match_to_list;
        ] );
      ( "procs-views",
        [
          Alcotest.test_case "universe" `Quick test_universe;
          Alcotest.test_case "majority" `Quick test_majority;
          Alcotest.test_case "nonempty subsets" `Quick test_nonempty_subsets;
          Alcotest.test_case "view basics" `Quick test_view_basics;
          Alcotest.test_case "view intersection" `Quick test_view_intersection;
          Alcotest.test_case "gid bottom" `Quick test_gid_bot;
        ] );
      ( "labels-summaries",
        [
          Alcotest.test_case "label order" `Quick test_label_order;
          Alcotest.test_case "gotstate functions" `Quick test_gotstate_functions;
          qcheck_case prop_fullorder_complete;
        ] );
    ]
