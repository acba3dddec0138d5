(** State records described once, as a typed list of named fields plus
    the record's constructor; the codec, equality, processor permutation
    and footprint projection are derived from that one list.  ['m] is the
    layer's payload type.  Each field's [equal] must hold exactly when its
    codec writes the same image; {!equal} then holds exactly when {!codec}
    does.  See DESIGN.md §13. *)

type ('m, 's) t

(** Where a field lands in the footprint projection ({!project}). *)
type ('m, 'a) family =
  | Family : string -> ('m, 'a) family
      (** the field's codec image; fields naming one family are adjacent *)
  | Nested : ('m, 'a) t -> ('m, 'a) family  (** the record's families *)
  | Per_proc : ('m, 'a) t -> ('m, 'a Prelude.Proc.Map.t) family
      (** the records' families, each concatenating every processor's
          image and its record's family, in processor order *)

type ('m, 'a) codec =
  | Fixed of 'a Codec.f  (** a field that holds no payload *)
  | Payload of ('m Codec.f -> 'a Codec.f)  (** built per {!codec} call *)

type ('m, 's, 'a) field

(** [field name get codec equal].  [?permute] maps the field's processors
    (default: it has none); [?family] places it in the projection. *)
val field :
  ?permute:((Prelude.Proc.t -> Prelude.Proc.t) -> 'a -> 'a) ->
  ?family:('m, 'a) family ->
  string ->
  ('s -> 'a) ->
  ('m, 'a) codec ->
  ('a -> 'a -> bool) ->
  ('m, 's, 'a) field

(** The fields in order, indexed by the constructor's type [a1 -> … -> 's]. *)
type ('m, 's, 'k) fields =
  | [] : ('m, 's, 's) fields
  | ( :: ) : ('m, 's, 'a) field * ('m, 's, 'k) fields -> ('m, 's, 'a -> 'k) fields

val make : 'k -> ('m, 's, 'k) fields -> ('m, 's) t

(** The fields' images in order.  The writer walks a list built here and
    allocates nothing per field; the reader applies the constructor. *)
val codec : ('m, 's) t -> 'm Codec.f -> 's Codec.f

(** Every field equal; [==] short-cuts a field and the whole record. *)
val equal : ('m, 's) t -> 's -> 's -> bool

(** The name of the first field that differs, if any. *)
val diff : ('m, 's) t -> 's -> 's -> string option

val permute : ('m, 's) t -> (Prelude.Proc.t -> Prelude.Proc.t) -> 's -> 's

(** Each family in field order, with its codec image. *)
val project : ('m, 's) t -> 'm Codec.f -> 's -> (string * string) list
