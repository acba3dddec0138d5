(** Findings and reports produced by the static-analysis pass.

    A {!finding} is a defect the analyzer can demonstrate on the explored
    state graph of one registry entry; a {!report} is the per-entry summary
    (exploration statistics, per-class fire counts, per-invariant coverage,
    footprint/symmetry summary, reduction comparison, findings).  Reports
    render human-readable via {!pp_report} and as JSON via {!reports_json}
    (hand-rolled — the build environment has no JSON library). *)

type finding =
  | Invariant_violation of { invariant : string; state : string }
      (** an invariant failed on a reachable state *)
  | Step_failure of { action : string; detail : string }
      (** a per-step property failed *)
  | Key_clash of { state_a : string; state_b : string }
      (** the dedup identity (the subject's codec) conflated two distinct
          states — the exploration (and every coverage number) is unsound
          for this entry *)
  | Unsound_candidate of { action : string; state : string }
      (** an [exact] generator proposed a disabled action *)
  | Missed_enabled of { action : string; cls : string; state : string }
      (** an action of a completeness-checked class was enabled in an
          observed state but not among the generator's proposals there *)
  | Dead_class of { cls : string }
      (** a declared action class never fired anywhere in the exploration *)
  | Vacuous_invariant of { invariant : string; states : int }
      (** the invariant's antecedent held in none of the observed states:
          the green check proves nothing *)
  | Deadlock of { state : string; depth : int }
      (** a state with no proposed candidates that the entry's quiescence
          predicate rejects *)
  | Footprint_violation of { cls : string; fam : string; action : string }
      (** a replayed step changed a state family outside its class's
          declared write footprint (or escaped the class summary) — the
          schema is unsound and no reduction it certifies can be trusted *)
  | Unsound_certification of { cls_a : string; cls_b : string; detail : string }
      (** two classes the static analysis certified independent failed the
          dynamic swap-replay audit *)
  | Symmetry_broken of { perm : string; fam : string; detail : string }
      (** an entry declared equivariant does not commute with the named
          processor permutation; [fam] localizes the offending state
          component when the projection can *)
  | Reduction_divergence of { detail : string }
      (** a reduced exploration reached a different verdict than the full
          one — the reduction (hence the declared schema) is unsound *)

type coverage = {
  cov_invariant : string;
  cov_states : int;  (** observed states the invariant was evaluated on *)
  cov_antecedent : int option;
      (** observed states on which the antecedent held; [None] for plain
          invariants without antecedent metadata *)
}

(** Summary of the static footprint/symmetry analysis of one entry:
    the derived may-conflict relation with witnesses, the certified
    independent class pairs, and the sizes of the dynamic audits that
    spot-checked them. *)
type footprint_summary = {
  fp_classes : int;
  fp_conflicts : (string * string * string) list;
  fp_independent : (string * string) list;
  fp_audit_steps : int;
  fp_audit_pairs : int;
  fp_audit_joined : int;
  fp_equivariant : bool option;
  fp_sym_checked : int;
  fp_sym_witness : string option;
      (** for declared-non-equivariant entries, one audited witness that
          symmetry is indeed broken (confirming the declaration) *)
}

(** Reduced-vs-full comparison recorded under [--reduce]. *)
type reduction = {
  red_full_states : int;
  red_reduced_states : int;
  red_ratio : float;  (** reduced / full *)
  red_por_skipped : int;
  red_orbit_collapsed : int;
  red_agrees : bool;
}

type report = {
  entry : string;
  states : int;
  transitions : int;
  depth : int;
  truncated : bool;
  classes : (string * int) list;  (** transitions fired per action class *)
  coverage : coverage list;
  findings : finding list;
  inconclusive : string list;
      (** analyses whose verdict a bounded exploration cannot support —
          e.g. dead-class checks on truncated runs — reported here instead
          of as (possibly false-positive) findings *)
  footprint : footprint_summary option;  (** present under [--footprint] *)
  reduction : reduction option;  (** present under [--reduce] *)
  elapsed_ms : float;  (** wall-clock time of the analysis pass *)
  states_per_sec : float;  (** state throughput; [0.] when unmeasurable *)
}

(** Stable machine-readable tag of the finding's constructor. *)
val kind : finding -> string

val pp_finding : Format.formatter -> finding -> unit
val pp_report : Format.formatter -> report -> unit

(** One JSON object for one entry. *)
val report_json : report -> string

(** The full run: [{"entries": [...], "total_findings": n}]. *)
val reports_json : report list -> string
