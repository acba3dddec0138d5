(** One-pass writers for state keys.

    A key renderer writes into a [Buffer.t] the bytes a [Format] printer
    would produce.  Two pieces are shared: separated iteration over a map
    or set (what [Format.pp_print_list] does over [bindings] or
    [elements], without building the list), and the line breaks a fresh
    [Format] formatter (margin 78, no box opened) puts at
    [Format.pp_print_cut].

    The break rule: a cut breaks when the text from it up to the next cut
    is at least as long as the space left on the line ([len ≥ 78 −
    column]); the last cut always breaks, because [Format] resolves its
    size only at the flush.  A break is a newline with no indentation. *)

type t
(** Cut positions recorded over the text written to a buffer since
    {!start}. *)

val start : Buffer.t -> t
(** [start buf] begins a text at the end of [buf], at column 0. *)

val cut : t -> unit
(** [cut t] marks a [Format.pp_print_cut] at the end of the buffer. *)

val finish : t -> unit
(** [finish t] resolves every cut of the text, inserting the newlines
    [Format] would have printed.  Call it once, after the text's last
    byte. *)

val sep_bindings :
  sep:(unit -> unit) ->
  (('k -> 'v -> bool -> bool) -> 'm -> bool -> bool) ->
  ('k -> 'v -> unit) ->
  'm ->
  unit
(** [sep_bindings ~sep fold f m] calls [f] on each binding of [m] in
    [fold]'s order, and [sep ()] between two. *)

val sep_elements :
  sep:(unit -> unit) -> (('e -> bool -> bool) -> 's -> bool -> bool) -> ('e -> unit) -> 's -> unit
(** [sep_elements ~sep fold f s]: the same over the elements of a set. *)
