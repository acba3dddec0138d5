(* Online trace monitors, in the style of "Specification and Runtime
   Checking of Derecho" (PAPERS.md): rules consume the live event stream
   one event at a time, keep incremental state in closures, and flag the
   first event that completes a violation — while the run is still in
   flight, not from a post-mortem log scan.  A rule latches after its
   first violation (the stream past a broken prefix proves nothing). *)

type violation = { rule : string; at_seq : int; reason : string }

let pp_violation ppf v =
  Format.fprintf ppf "[%s] at #%d: %s" v.rule v.at_seq v.reason

type rule = { name : string; check : Trace.event -> string option }

let rule ~name check = { name; check }

type rstate = { r : rule; mutable tripped : bool }

type t = {
  mu : Mutex.t;
  rules : rstate array;
  mutable seen : int;
  mutable latest : violation list;  (* newest first *)
}

let create rules =
  {
    mu = Mutex.create ();
    rules = Array.of_list (List.map (fun r -> { r; tripped = false }) rules);
    seen = 0;
    latest = [];
  }

let feed t (e : Trace.event) =
  Mutex.lock t.mu;
  t.seen <- t.seen + 1;
  let fresh = ref [] in
  Array.iter
    (fun rs ->
      if not rs.tripped then
        match rs.r.check e with
        | None -> ()
        | Some reason ->
            rs.tripped <- true;
            let v = { rule = rs.r.name; at_seq = e.Trace.seq; reason } in
            t.latest <- v :: t.latest;
            fresh := v :: !fresh)
    t.rules;
  Mutex.unlock t.mu;
  List.rev !fresh

let violations t =
  Mutex.lock t.mu;
  let vs = List.rev t.latest in
  Mutex.unlock t.mu;
  vs

let ok t = violations t = []

let record t v =
  Mutex.lock t.mu;
  let fresh = not (List.exists (fun v' -> String.equal v'.rule v.rule) t.latest) in
  if fresh then t.latest <- v :: t.latest;
  Mutex.unlock t.mu;
  fresh

let events_seen t =
  Mutex.lock t.mu;
  let n = t.seen in
  Mutex.unlock t.mu;
  n

(* The sink wrapper: every event feeds the monitor; fresh violations are
   emitted Derecho-style as "violation" points on [out].  [out] must be
   a different sink (the feed runs under this sink's mutex; emission
   into [out] happens after it is released, but emitting back into the
   monitored sink itself would deadlock). *)
let sink ?out t =
  Trace.callback (fun e ->
      let fresh = feed t e in
      match out with
      | None -> ()
      | Some o ->
          List.iter
            (fun v ->
              Trace.point o ~component:"obs.monitor" ~cls:"violation"
                [
                  ("rule", Trace.Str v.rule);
                  ("at_seq", Trace.Int v.at_seq);
                  ("reason", Trace.Str v.reason);
                ])
            fresh)

(* ------------------------------------------------------------------ *)
(* Built-in rules over the vs.engine / check.explorer event vocabulary *)
(* ------------------------------------------------------------------ *)

let p_int = Trace.payload_int
let p_str = Trace.payload_str

(* Registry invariant "unique sequencing": a sequencer assigns each
   accepted forward exactly one position — (receiver, gid, src, fsn)
   sequenced twice is the No_dedup defect, visible online as a repeated
   key.  (Faithful engines drop the duplicate at the watermark and never
   emit the second event.)

   State per (receiver, gid, src): a watermark [wm] with every fsn in
   [1, wm] seen, plus the fsns seen outside that range.  Faithful
   senders number forwards 1, 2, 3, … so [stray] stays empty and a
   stream costs a few words per sender, not per message. *)
type fsns = { mutable wm : int; mutable stray : int list }

let unique_sequencing () =
  let seen : (string * string * string, fsns) Hashtbl.t = Hashtbl.create 64 in
  rule ~name:"unique-sequencing" (fun e ->
      if String.equal e.Trace.cls "sequenced" then
        match (p_str "p" e, p_str "gid" e, p_str "src" e, p_int "fsn" e) with
        | Some p, Some gid, Some src, Some fsn ->
            let k = (p, gid, src) in
            let f =
              match Hashtbl.find_opt seen k with
              | Some f -> f
              | None ->
                  let f = { wm = 0; stray = [] } in
                  Hashtbl.add seen k f;
                  f
            in
            if (1 <= fsn && fsn <= f.wm) || List.mem fsn f.stray then
              Some
                (Printf.sprintf
                   "forward (src %s, view %s, fsn %d) sequenced twice at %s"
                   src gid fsn p)
            else begin
              if fsn = f.wm + 1 then begin
                f.wm <- fsn;
                while List.mem (f.wm + 1) f.stray do
                  f.wm <- f.wm + 1;
                  f.stray <- List.filter (( <> ) f.wm) f.stray
                done
              end
              else f.stray <- fsn :: f.stray;
              None
            end
        | _ -> None
      else None)

(* Deliveries per (process, view) must walk the positions 1, 2, 3, …
   with no gap or repeat — the online shadow of the spec's
   next-to-deliver index discipline. *)
let contiguous_delivery () =
  let last : (string * string, int ref) Hashtbl.t = Hashtbl.create 64 in
  rule ~name:"contiguous-delivery" (fun e ->
      if String.equal e.Trace.cls "deliver" then
        match (p_str "p" e, p_str "gid" e, p_int "sn" e) with
        | Some p, Some gid, Some sn ->
            let k = (p, gid) in
            let r =
              match Hashtbl.find_opt last k with
              | Some r -> r
              | None ->
                  let r = ref 0 in
                  Hashtbl.add last k r;
                  r
            in
            let prev = !r in
            if sn = prev + 1 then begin
              r := sn;
              None
            end
            else
              Some
                (Printf.sprintf
                   "%s delivered position %d of view %s after %d" p sn gid
                   prev)
        | _ -> None
      else None)

(* Refinement obligation, prefix consistency: all members of a view must
   agree on what occupies each position of its total order.

   State per view: the first entry ["origin:msg"] seen at each position.
   Positions from 1 live in fixed-size chunks of [slots] positions —
   position sn in chunk [(sn - 1) / slots] — one more chunk added as
   delivery (contiguous from 1) reaches it; a table holds positions
   beyond the next chunk or below 1, until a chunk grows over them.  A
   chunk keeps its entries' bytes back to back in one buffer, each a
   varint length and the bytes, and per slot the entry's offset plus 1
   (0: absent) as 4 bytes: ~20 bytes a position where a string per
   position took ~32, and no block per position for the GC to trace.
   Nothing is ever copied but a chunk's buffer as it doubles.  A later
   member's entry is compared in place, without building the string. *)
let slots = 1024

type chunk = {
  at : Bytes.t;  (* per slot: offset of its entry in [data] + 1, int32 *)
  mutable data : Bytes.t;
  mutable fill : int;
}

type order = { mutable dense : chunk array; sparse : (int, string) Hashtbl.t }

let new_chunk () =
  { at = Bytes.make (4 * slots) '\000'; data = Bytes.create 256; fill = 0 }

(* [n]'s varint at [p] of [b]; the position after it. *)
let rec put_varint b p n =
  if n < 0x80 then begin
    Bytes.set b p (Char.chr n);
    p + 1
  end
  else begin
    Bytes.set b p (Char.chr (0x80 lor (n land 0x7f)));
    put_varint b (p + 1) (n lsr 7)
  end

(* The varint at [p] of [b] (its low bits [acc], from [shift] on). *)
let rec get_varint b p shift acc =
  let x = Char.code (Bytes.get b p) in
  let acc = acc lor ((x land 0x7f) lsl shift) in
  if x land 0x80 = 0 then acc else get_varint b (p + 1) (shift + 7) acc

(* The position after the varint at [p] of [b]. *)
let rec skip_varint b p =
  if Char.code (Bytes.get b p) land 0x80 = 0 then p + 1
  else skip_varint b (p + 1)

(* Room for an [n]-byte entry at the end of [c]'s buffer, as slot [i]'s:
   where its bytes go. *)
let append c i n =
  let need = c.fill + 10 + n in
  if need > Bytes.length c.data then begin
    let d = Bytes.create (max need (2 * Bytes.length c.data)) in
    Bytes.blit c.data 0 d 0 c.fill;
    c.data <- d
  end;
  Bytes.set_int32_le c.at (4 * i) (Int32.of_int (c.fill + 1));
  let p = put_varint c.data c.fill n in
  c.fill <- p + n;
  p

let store c i ~origin ~msg =
  let lo = String.length origin in
  let p = append c i (lo + 1 + String.length msg) in
  Bytes.blit_string origin 0 c.data p lo;
  Bytes.set c.data (p + lo) ':';
  Bytes.blit_string msg 0 c.data (p + lo + 1) (String.length msg)

(* Where slot [i]'s entry starts in [c.data] (its length varint); -1
   when the slot is empty. *)
let slot_entry c i = Int32.to_int (Bytes.get_int32_le c.at (4 * i)) - 1

let rec same b off s i k =
  i = k || (Bytes.get b (off + i) = String.get s i && same b off s (i + 1) k)

(* Whether the [n] bytes of [b] from [p] are [origin:msg]. *)
let entry_is b p n ~origin ~msg =
  let lo = String.length origin and lm = String.length msg in
  n = lo + 1 + lm
  && Bytes.get b (p + lo) = ':'
  && same b p origin 0 lo
  && same b (p + lo + 1) msg 0 lm

let conflict ~gid ~sn ~origin ~msg prior =
  Some
    (Printf.sprintf
       "view %s position %d delivered as %s by one member and %s by another"
       gid sn prior (origin ^ ":" ^ msg))

module Prefix = struct
  type t = (string, order) Hashtbl.t

  let name = "prefix-consistent"
  let create () : t = Hashtbl.create 64

  let check views ~gid ~sn ~origin ~msg =
    let o =
      match Hashtbl.find_opt views gid with
      | Some o -> o
      | None ->
          let o = { dense = [||]; sparse = Hashtbl.create 1 } in
          Hashtbl.add views gid o;
          o
    in
    let n = slots * Array.length o.dense in
    if sn > n && sn <= n + slots then begin
      let c = new_chunk () in
      Hashtbl.filter_map_inplace
        (fun k entry ->
          if k > n && k <= n + slots then begin
            let len = String.length entry in
            let p = append c (k - 1 - n) len in
            Bytes.blit_string entry 0 c.data p len;
            None
          end
          else Some entry)
        o.sparse;
      o.dense <- Array.append o.dense [| c |]
    end;
    if 1 <= sn && sn <= slots * Array.length o.dense then begin
      let c = o.dense.((sn - 1) / slots) and i = (sn - 1) mod slots in
      let e = slot_entry c i in
      if e < 0 then begin
        store c i ~origin ~msg;
        None
      end
      else
        let n = get_varint c.data e 0 0 and p = skip_varint c.data e in
        if entry_is c.data p n ~origin ~msg then None
        else conflict ~gid ~sn ~origin ~msg (Bytes.sub_string c.data p n)
    end
    else
      match Hashtbl.find_opt o.sparse sn with
      | None ->
          Hashtbl.add o.sparse sn (origin ^ ":" ^ msg);
          None
      | Some prior ->
          let b = Bytes.unsafe_of_string prior in
          if entry_is b 0 (String.length prior) ~origin ~msg then None
          else conflict ~gid ~sn ~origin ~msg prior
end

let prefix_consistent () =
  let views = Prefix.create () in
  rule ~name:Prefix.name (fun e ->
      if String.equal e.Trace.cls "deliver" then
        match (p_str "gid" e, p_int "sn" e, p_str "origin" e, p_str "msg" e)
        with
        | Some gid, Some sn, Some origin, Some msg ->
            Prefix.check views ~gid ~sn ~origin ~msg
        | _ -> None
      else None)

(* A named integer payload key on a component's events never decreases
   within one run — the generic liveness shadow: explorer state counts,
   the live hub's delivered counter, any monotone progress signal. *)
let monotone ?name ~component ~key () =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "monotone-%s.%s" component key
  in
  let last = ref (-1) in
  rule ~name (fun e ->
      if String.equal e.Trace.component component then
        match p_int key e with
        | Some s ->
            if s < !last then
              Some
                (Printf.sprintf "%s went backwards: %d after %d" key s !last)
            else begin
              last := s;
              None
            end
        | None -> None
      else None)

(* The explorer's states counter (progress / heartbeat / done events)
   never decreases within one run. *)
let monotone_progress () =
  monotone ~name:"monotone-progress" ~component:"check.explorer" ~key:"states"
    ()

let local () = [ unique_sequencing (); contiguous_delivery () ]

let standard () =
  [
    unique_sequencing ();
    contiguous_delivery ();
    prefix_consistent ();
    monotone_progress ();
  ]
