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

   State per view: the first entry ["origin:msg"] seen at each position,
   in an array indexed by sn that doubles to cover the positions
   delivery reaches (contiguous from 1), and a table for positions
   beyond twice its length or below 1 (moved into the array when it
   grows over them).  An absent slot is [""]: every entry holds a [':'].
   A later member's entry is compared in place, without building the
   string. *)
type order = {
  mutable dense : string array;
  sparse : (int, string) Hashtbl.t;
}

let entry_is prior ~origin ~msg =
  let lo = String.length origin and lm = String.length msg in
  let rec same s off i n =
    i = n || (prior.[off + i] = s.[i] && same s off (i + 1) n)
  in
  String.length prior = lo + 1 + lm
  && prior.[lo] = ':'
  && same origin 0 0 lo
  && same msg (lo + 1) 0 lm

let prefix_consistent () =
  let views : (string, order) Hashtbl.t = Hashtbl.create 64 in
  rule ~name:"prefix-consistent" (fun e ->
      if String.equal e.Trace.cls "deliver" then
        match (p_str "gid" e, p_int "sn" e, p_str "origin" e, p_str "msg" e)
        with
        | Some gid, Some sn, Some origin, Some msg -> (
            let o =
              match Hashtbl.find_opt views gid with
              | Some o -> o
              | None ->
                  let o =
                    { dense = Array.make 16 ""; sparse = Hashtbl.create 1 }
                  in
                  Hashtbl.add views gid o;
                  o
            in
            let n = Array.length o.dense in
            if sn > n && sn <= 2 * n then begin
              let d = Array.make (2 * n) "" in
              Array.blit o.dense 0 d 0 n;
              Hashtbl.filter_map_inplace
                (fun k entry ->
                  if k > n && k <= 2 * n then begin
                    d.(k - 1) <- entry;
                    None
                  end
                  else Some entry)
                o.sparse;
              o.dense <- d
            end;
            let in_dense = 1 <= sn && sn <= Array.length o.dense in
            let prior =
              if in_dense then o.dense.(sn - 1)
              else Option.value ~default:"" (Hashtbl.find_opt o.sparse sn)
            in
            match prior with
            | "" ->
                let entry = origin ^ ":" ^ msg in
                if in_dense then o.dense.(sn - 1) <- entry
                else Hashtbl.add o.sparse sn entry;
                None
            | prior when entry_is prior ~origin ~msg -> None
            | prior ->
                Some
                  (Printf.sprintf
                     "view %s position %d delivered as %s by one member and \
                      %s by another"
                     gid sn prior (origin ^ ":" ^ msg)))
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

let standard () =
  [
    unique_sequencing ();
    contiguous_delivery ();
    prefix_consistent ();
    monotone_progress ();
  ]
