type finding =
  | Invariant_violation of { invariant : string; state : string }
  | Step_failure of { action : string; detail : string }
  | Key_clash of { state_a : string; state_b : string }
  | Unsound_candidate of { action : string; state : string }
  | Missed_enabled of { action : string; cls : string; state : string }
  | Dead_class of { cls : string }
  | Vacuous_invariant of { invariant : string; states : int }
  | Deadlock of { state : string; depth : int }
  | Footprint_violation of { cls : string; fam : string; action : string }
  | Unsound_certification of { cls_a : string; cls_b : string; detail : string }
  | Symmetry_broken of { perm : string; fam : string; detail : string }
  | Reduction_divergence of { detail : string }

type coverage = {
  cov_invariant : string;
  cov_states : int;
  cov_antecedent : int option;
}

type footprint_summary = {
  fp_classes : int;
  fp_conflicts : (string * string * string) list;
      (* (class, class, witness effect pair) of the may-conflict relation *)
  fp_independent : (string * string) list;
  fp_audit_steps : int;
  fp_audit_pairs : int;
  fp_audit_joined : int;
  fp_equivariant : bool option;
      (* declared symmetry status; [None] when no symmetry spec *)
  fp_sym_checked : int;
  fp_sym_witness : string option;
      (* for declared-NON-equivariant entries: one audited witness that
         symmetry is indeed broken, confirming the declaration *)
}

type reduction = {
  red_full_states : int;
  red_reduced_states : int;
  red_ratio : float;
  red_por_skipped : int;
  red_orbit_collapsed : int;
  red_agrees : bool;  (* reduced and full runs reach the same verdicts *)
}

type report = {
  entry : string;
  states : int;
  transitions : int;
  depth : int;
  truncated : bool;
  classes : (string * int) list;
  coverage : coverage list;
  findings : finding list;
  inconclusive : string list;
      (* analyses skipped or weakened by truncation/depth bounds — recorded
         instead of risking false-positive findings *)
  footprint : footprint_summary option;
  reduction : reduction option;
  elapsed_ms : float;
  states_per_sec : float;
}

let kind = function
  | Invariant_violation _ -> "invariant-violation"
  | Step_failure _ -> "step-failure"
  | Key_clash _ -> "key-clash"
  | Unsound_candidate _ -> "unsound-candidate"
  | Missed_enabled _ -> "missed-enabled"
  | Dead_class _ -> "dead-class"
  | Vacuous_invariant _ -> "vacuous-invariant"
  | Deadlock _ -> "deadlock"
  | Footprint_violation _ -> "footprint-violation"
  | Unsound_certification _ -> "unsound-certification"
  | Symmetry_broken _ -> "symmetry-broken"
  | Reduction_divergence _ -> "reduction-divergence"

let pp_finding ppf f =
  match f with
  | Invariant_violation { invariant; state } ->
      Format.fprintf ppf "invariant %S violated at state %s" invariant state
  | Step_failure { action; detail } ->
      Format.fprintf ppf "step property failed on %s: %s" action detail
  | Key_clash { state_a; state_b } ->
      Format.fprintf ppf
        "dedup identity not injective: distinct states share a \
         fingerprint@ (%s@ vs %s)"
        state_a state_b
  | Unsound_candidate { action; state } ->
      Format.fprintf ppf "candidate %s proposed but not enabled at %s" action
        state
  | Missed_enabled { action; cls; state } ->
      Format.fprintf ppf
        "action %s (class %s) enabled but never proposed at %s" action cls
        state
  | Dead_class { cls } ->
      Format.fprintf ppf "action class %S never fired" cls
  | Vacuous_invariant { invariant; states } ->
      Format.fprintf ppf
        "invariant %S passed vacuously: antecedent held in 0 of %d states"
        invariant states
  | Deadlock { state; depth } ->
      Format.fprintf ppf "non-quiescent deadlock at depth %d: %s" depth state
  | Footprint_violation { cls; fam; action } ->
      Format.fprintf ppf
        "declared footprint of class %S missed family %S (action %s)" cls fam
        action
  | Unsound_certification { cls_a; cls_b; detail } ->
      Format.fprintf ppf
        "classes %S and %S certified independent but fail swap-replay: %s"
        cls_a cls_b detail
  | Symmetry_broken { perm; fam; detail } ->
      Format.fprintf ppf
        "declared-equivariant entry breaks symmetry under [%s]%s: %s" perm
        (if fam = "" then "" else Printf.sprintf " in family %S" fam)
        detail
  | Reduction_divergence { detail } ->
      Format.fprintf ppf "reduced exploration diverged from full: %s" detail

let pp_coverage ppf c =
  match c.cov_antecedent with
  | None ->
      Format.fprintf ppf "%-55s %6d states" c.cov_invariant c.cov_states
  | Some n ->
      Format.fprintf ppf "%-55s %6d states, antecedent in %d" c.cov_invariant
        c.cov_states n

let pp_footprint ppf fp =
  Format.fprintf ppf
    "footprint: %d classes, %d may-conflict pairs, %d certified independent@,"
    fp.fp_classes
    (List.length fp.fp_conflicts)
    (List.length fp.fp_independent);
  List.iter
    (fun (a, b, w) -> Format.fprintf ppf "  conflict %s ~ %s (%s)@," a b w)
    fp.fp_conflicts;
  List.iter
    (fun (a, b) -> Format.fprintf ppf "  independent %s || %s@," a b)
    fp.fp_independent;
  Format.fprintf ppf
    "  audit: %d steps write-checked, %d pairs swap-replayed (%d via join probe)@,"
    fp.fp_audit_steps fp.fp_audit_pairs fp.fp_audit_joined;
  (match fp.fp_equivariant with
  | None -> Format.fprintf ppf "  symmetry: no declaration@,"
  | Some eq ->
      Format.fprintf ppf "  symmetry: declared %s, %d checks replayed@,"
        (if eq then "equivariant" else "non-equivariant (no reduction)")
        fp.fp_sym_checked);
  match fp.fp_sym_witness with
  | None -> ()
  | Some w -> Format.fprintf ppf "  symmetry-breaking witness: %s@," w

let pp_reduction ppf r =
  Format.fprintf ppf
    "reduction: %d states vs %d full (ratio %.3f), %d por-skipped, %d orbit-collapsed, verdicts %s@,"
    r.red_reduced_states r.red_full_states r.red_ratio r.red_por_skipped
    r.red_orbit_collapsed
    (if r.red_agrees then "agree" else "DIVERGE")

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>== %s ==@,%d states, %d transitions, depth %d%s (%.1f ms, %.0f states/s)@,"
    r.entry r.states r.transitions r.depth
    (if r.truncated then " (TRUNCATED: coverage analyses skipped)" else "")
    r.elapsed_ms r.states_per_sec;
  Format.fprintf ppf "action classes:@,";
  List.iter
    (fun (cls, n) -> Format.fprintf ppf "  %-20s %6d fired@," cls n)
    r.classes;
  if r.coverage <> [] then begin
    Format.fprintf ppf "invariant coverage:@,";
    List.iter (fun c -> Format.fprintf ppf "  %a@," pp_coverage c) r.coverage
  end;
  (match r.footprint with None -> () | Some fp -> pp_footprint ppf fp);
  (match r.reduction with None -> () | Some red -> pp_reduction ppf red);
  if r.inconclusive <> [] then begin
    Format.fprintf ppf "inconclusive (%d):@," (List.length r.inconclusive);
    List.iter (fun s -> Format.fprintf ppf "  %s@," s) r.inconclusive
  end;
  (match r.findings with
  | [] -> Format.fprintf ppf "findings: none@,"
  | fs ->
      Format.fprintf ppf "findings (%d):@," (List.length fs);
      List.iter
        (fun f -> Format.fprintf ppf "  [%s] %a@," (kind f) pp_finding f)
        fs);
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Hand-rolled JSON (no JSON library in the build environment).        *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jstr s = Printf.sprintf "\"%s\"" (json_escape s)
let jfield k v = Printf.sprintf "%s:%s" (jstr k) v
let jobj fields = "{" ^ String.concat "," fields ^ "}"
let jarr elts = "[" ^ String.concat "," elts ^ "]"

let finding_json f =
  let base = jfield "kind" (jstr (kind f)) in
  match f with
  | Invariant_violation { invariant; state } ->
      jobj
        [ base; jfield "invariant" (jstr invariant); jfield "state" (jstr state) ]
  | Step_failure { action; detail } ->
      jobj [ base; jfield "action" (jstr action); jfield "detail" (jstr detail) ]
  | Key_clash { state_a; state_b } ->
      jobj
        [
          base;
          jfield "state_a" (jstr state_a);
          jfield "state_b" (jstr state_b);
        ]
  | Unsound_candidate { action; state } ->
      jobj [ base; jfield "action" (jstr action); jfield "state" (jstr state) ]
  | Missed_enabled { action; cls; state } ->
      jobj
        [
          base;
          jfield "action" (jstr action);
          jfield "class" (jstr cls);
          jfield "state" (jstr state);
        ]
  | Dead_class { cls } -> jobj [ base; jfield "class" (jstr cls) ]
  | Vacuous_invariant { invariant; states } ->
      jobj
        [
          base;
          jfield "invariant" (jstr invariant);
          jfield "states" (string_of_int states);
        ]
  | Deadlock { state; depth } ->
      jobj
        [
          base;
          jfield "state" (jstr state);
          jfield "depth" (string_of_int depth);
        ]
  | Footprint_violation { cls; fam; action } ->
      jobj
        [
          base;
          jfield "class" (jstr cls);
          jfield "family" (jstr fam);
          jfield "action" (jstr action);
        ]
  | Unsound_certification { cls_a; cls_b; detail } ->
      jobj
        [
          base;
          jfield "class_a" (jstr cls_a);
          jfield "class_b" (jstr cls_b);
          jfield "detail" (jstr detail);
        ]
  | Symmetry_broken { perm; fam; detail } ->
      jobj
        [
          base;
          jfield "permutation" (jstr perm);
          jfield "family" (jstr fam);
          jfield "detail" (jstr detail);
        ]
  | Reduction_divergence { detail } ->
      jobj [ base; jfield "detail" (jstr detail) ]

let coverage_json c =
  jobj
    [
      jfield "invariant" (jstr c.cov_invariant);
      jfield "states" (string_of_int c.cov_states);
      jfield "antecedent_held"
        (match c.cov_antecedent with
        | None -> "null"
        | Some n -> string_of_int n);
    ]

let footprint_json fp =
  jobj
    [
      jfield "classes" (string_of_int fp.fp_classes);
      jfield "conflicts"
        (jarr
           (List.map
              (fun (a, b, w) ->
                jobj
                  [
                    jfield "class_a" (jstr a);
                    jfield "class_b" (jstr b);
                    jfield "witness" (jstr w);
                  ])
              fp.fp_conflicts));
      jfield "independent"
        (jarr
           (List.map
              (fun (a, b) ->
                jobj [ jfield "class_a" (jstr a); jfield "class_b" (jstr b) ])
              fp.fp_independent));
      jfield "audit_steps" (string_of_int fp.fp_audit_steps);
      jfield "audit_pairs" (string_of_int fp.fp_audit_pairs);
      jfield "audit_joined" (string_of_int fp.fp_audit_joined);
      jfield "equivariant"
        (match fp.fp_equivariant with
        | None -> "null"
        | Some true -> "true"
        | Some false -> "false");
      jfield "symmetry_checks" (string_of_int fp.fp_sym_checked);
      jfield "symmetry_witness"
        (match fp.fp_sym_witness with None -> "null" | Some w -> jstr w);
    ]

let reduction_json r =
  jobj
    [
      jfield "full_states" (string_of_int r.red_full_states);
      jfield "reduced_states" (string_of_int r.red_reduced_states);
      jfield "reduction_ratio" (Printf.sprintf "%.4f" r.red_ratio);
      jfield "por_skipped" (string_of_int r.red_por_skipped);
      jfield "orbit_collapsed" (string_of_int r.red_orbit_collapsed);
      jfield "verdicts_agree" (if r.red_agrees then "true" else "false");
    ]

let report_json r =
  jobj
    [
      jfield "entry" (jstr r.entry);
      jfield "states" (string_of_int r.states);
      jfield "transitions" (string_of_int r.transitions);
      jfield "depth" (string_of_int r.depth);
      jfield "truncated" (if r.truncated then "true" else "false");
      jfield "classes"
        (jobj
           (List.map (fun (cls, n) -> jfield cls (string_of_int n)) r.classes));
      jfield "coverage" (jarr (List.map coverage_json r.coverage));
      jfield "findings" (jarr (List.map finding_json r.findings));
      jfield "inconclusive" (jarr (List.map jstr r.inconclusive));
      jfield "footprint"
        (match r.footprint with None -> "null" | Some fp -> footprint_json fp);
      jfield "reduction"
        (match r.reduction with None -> "null" | Some red -> reduction_json red);
      (* the "%f"-style renderings always contain '.', as JSON floats must *)
      jfield "elapsed_ms" (Printf.sprintf "%.3f" r.elapsed_ms);
      jfield "states_per_sec" (Printf.sprintf "%.1f" r.states_per_sec);
    ]

let reports_json rs =
  let total =
    List.fold_left (fun n r -> n + List.length r.findings) 0 rs
  in
  jobj
    [
      jfield "entries" (jarr (List.map report_json rs));
      jfield "total_findings" (string_of_int total);
    ]
