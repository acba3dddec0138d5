type policy = {
  drop : float;
  duplicate : float;
  reorder : float;
  max_drops : int;
  max_duplicates : int;
  max_reorders : int;
}

let none =
  {
    drop = 0.;
    duplicate = 0.;
    reorder = 0.;
    max_drops = 0;
    max_duplicates = 0;
    max_reorders = 0;
  }

let adversarial ?(max_drops = 1) ?(max_duplicates = 1) ?(max_reorders = 1) () =
  { drop = 1.; duplicate = 1.; reorder = 1.; max_drops; max_duplicates; max_reorders }

let storm ?(drop = 0.1) ?(duplicate = 0.05) ?(reorder = 0.05) ~steps () =
  let budget p = max 1 (int_of_float (p *. float_of_int steps)) in
  {
    drop;
    duplicate;
    reorder;
    max_drops = (if drop > 0. then budget drop else 0);
    max_duplicates = (if duplicate > 0. then budget duplicate else 0);
    max_reorders = (if reorder > 0. then budget reorder else 0);
  }

let is_faulty p = p.max_drops > 0 || p.max_duplicates > 0 || p.max_reorders > 0

let pp ppf p =
  if not (is_faulty p) then Format.pp_print_string ppf "lossless"
  else
    Format.fprintf ppf "drop %.2f/%d dup %.2f/%d reorder %.2f/%d" p.drop
      p.max_drops p.duplicate p.max_duplicates p.reorder p.max_reorders

let record : (unit, policy) Check.Record.t =
  let open Check.Record in
  (* floats compare by their bits, as the codec writes them *)
  let bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let float name get = field name get (Fixed Check.Codec.float) bits in
  let int name get = field name get (Fixed Check.Codec.int) Int.equal in
  make (fun drop duplicate reorder max_drops max_duplicates max_reorders ->
      { drop; duplicate; reorder; max_drops; max_duplicates; max_reorders })
    [
      float "drop" (fun p -> p.drop);
      float "duplicate" (fun p -> p.duplicate);
      float "reorder" (fun p -> p.reorder);
      int "max_drops" (fun p -> p.max_drops);
      int "max_duplicates" (fun p -> p.max_duplicates);
      int "max_reorders" (fun p -> p.max_reorders);
    ]

let equal = Check.Record.equal record
let codec = Check.Record.codec record Check.Codec.unit
