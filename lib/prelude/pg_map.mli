(** Maps keyed by a (processor, view-identifier) pair — the shape of the
    per-process per-view bookkeeping arrays ([pending], [next], [next-safe],
    [info-rcvd], …) in the paper's automata. *)

type key = Proc.t * Gid.t

include Stdlib.Map.S with type key := key

(** [find_or ~default k m]: total lookup with a default, matching the
    "init λ / init 1" array conventions of the specifications. *)
val find_or : default:'a -> key -> 'a t -> 'a

(** [rekey pi m] moves each binding [(p, g) ↦ v] to [(pi p, g) ↦ v];
    [pi] must be a permutation. *)
val rekey : (Proc.t -> Proc.t) -> 'a t -> 'a t
