(* Scoped-phase profiler with per-domain accumulators.

   One [t] covers one profiled run: phases are interned to dense ids up
   front (before any worker domain starts — interning resizes the
   per-slot accumulator arrays), then each worker charges wall time to
   phases through a per-slot phase *stack*: entering a nested phase
   pauses the enclosing one, so attributions are disjoint by
   construction and per-phase totals sum to at most (slots × wall).
   [enter]/[leave] are one clock read ([Monotonic_clock.now], a noalloc
   external) plus a few mutable stores — cheap enough to leave in hot
   loops behind an option check.

   Slots are caller-assigned (the explorer uses its worker id); distinct
   domains must use distinct slots, and a slot is single-threaded, so no
   locking is needed on the hot path.  Allocation is accrued explicitly
   ([add_alloc], from the domain-local [Gc.allocated_bytes] deltas the
   workers sample) plus the creating domain's own delta captured by
   [stop]; GC counts come from [Gc.quick_stat] deltas on the creating
   domain. *)

let now_ns () = Monotonic_clock.now ()

(* The hot path keeps nanoseconds as immediate [int]s: a [mutable]
   [int64] field would box on every store. *)
let now_int () = Int64.to_int (Monotonic_clock.now ())

type acc = { mutable ns : int; mutable calls : int }

type slot = {
  mutable accs : acc array;  (* indexed by phase id *)
  mutable stack : int array;  (* open phases, innermost at [depth - 1] *)
  mutable depth : int;
  mutable last : int;  (* when the innermost phase (re)started *)
  mutable alloc : float;  (* bytes accrued via add_alloc *)
}

type t = {
  mu : Mutex.t;  (* guards interning only *)
  mutable phases : string array;
  slots : slot array;
  t0 : int64;
  mutable t1 : int64;  (* 0 until [stop] *)
  gc_alloc0 : float;
  gc0 : Gc.stat;
  mutable main_alloc : float;  (* creating domain's delta, set by [stop] *)
  mutable gc1 : Gc.stat option;
}

let intern t name =
  Mutex.lock t.mu;
  let n = Array.length t.phases in
  let found = ref (-1) in
  (try
     for i = 0 to n - 1 do
       if String.equal t.phases.(i) name then begin
         found := i;
         raise Exit
       end
     done
   with Exit -> ());
  let id =
    if !found >= 0 then !found
    else begin
      t.phases <- Array.append t.phases [| name |];
      Array.iter
        (fun s -> s.accs <- Array.append s.accs [| { ns = 0; calls = 0 } |])
        t.slots;
      n
    end
  in
  Mutex.unlock t.mu;
  id

let create ?(phases = []) ~slots () =
  let t =
    {
      mu = Mutex.create ();
      phases = [||];
      slots =
        Array.init (max 1 slots) (fun _ ->
            { accs = [||]; stack = Array.make 8 0; depth = 0; last = 0;
              alloc = 0. });
      t0 = now_ns ();
      t1 = 0L;
      gc_alloc0 = Gc.allocated_bytes ();
      gc0 = Gc.quick_stat ();
      main_alloc = 0.;
      gc1 = None;
    }
  in
  List.iter (fun p -> ignore (intern t p)) phases;
  t

let slots t = Array.length t.slots
let phases t = Array.to_list t.phases

let enter t ~slot phase =
  let s = t.slots.(slot) in
  let now = now_int () in
  if s.depth > 0 then begin
    let a = s.accs.(s.stack.(s.depth - 1)) in
    a.ns <- a.ns + (now - s.last)
  end;
  let a = s.accs.(phase) in
  a.calls <- a.calls + 1;
  if s.depth = Array.length s.stack then
    s.stack <- Array.append s.stack (Array.make s.depth 0);
  s.stack.(s.depth) <- phase;
  s.depth <- s.depth + 1;
  s.last <- now

let leave t ~slot phase =
  let s = t.slots.(slot) in
  let now = now_int () in
  let a = s.accs.(phase) in
  a.ns <- a.ns + (now - s.last);
  if s.depth > 0 then s.depth <- s.depth - 1;
  s.last <- now

let add_alloc t ~slot bytes =
  let s = t.slots.(slot) in
  s.alloc <- s.alloc +. bytes

let stop t =
  if Int64.equal t.t1 0L then begin
    t.t1 <- now_ns ();
    t.main_alloc <- Gc.allocated_bytes () -. t.gc_alloc0;
    t.gc1 <- Some (Gc.quick_stat ())
  end

let wall_ns t =
  Int64.sub (if Int64.equal t.t1 0L then now_ns () else t.t1) t.t0

let alloc_bytes t =
  Array.fold_left (fun acc s -> acc +. s.alloc) t.main_alloc t.slots

let ns_to_ms ns = Int64.to_float ns /. 1e6

type phase_total = { phase : string; ns : int64; calls : int }

type report = {
  wall_ns : int64;
  worker_slots : int;
  totals : phase_total list;  (* phase-interning order *)
  attributed : float;  (* Σ phase ns / (slots × wall) *)
  alloc_bytes : float;
  minor_collections : int;
  major_collections : int;
  top_heap_bytes : int;
}

let totals t =
  Array.to_list
    (Array.mapi
       (fun i phase ->
         let ns = ref 0 and calls = ref 0 in
         Array.iter
           (fun s ->
             if i < Array.length s.accs then begin
               ns := !ns + s.accs.(i).ns;
               calls := !calls + s.accs.(i).calls
             end)
           t.slots;
         { phase; ns = Int64.of_int !ns; calls = !calls })
       t.phases)

let report t =
  let wall = wall_ns t in
  let ts = totals t in
  let sum = List.fold_left (fun acc p -> Int64.add acc p.ns) 0L ts in
  let denom = float_of_int (Array.length t.slots) *. Int64.to_float wall in
  let gc1 = match t.gc1 with Some g -> g | None -> Gc.quick_stat () in
  {
    wall_ns = wall;
    worker_slots = Array.length t.slots;
    totals = ts;
    attributed = (if denom > 0. then Int64.to_float sum /. denom else 0.);
    alloc_bytes = alloc_bytes t;
    minor_collections = gc1.Gc.minor_collections - t.gc0.Gc.minor_collections;
    major_collections = gc1.Gc.major_collections - t.gc0.Gc.major_collections;
    top_heap_bytes = gc1.Gc.top_heap_words * (Sys.word_size / 8);
  }

let pp_report ppf r =
  let wall_ms = ns_to_ms r.wall_ns in
  let denom = float_of_int r.worker_slots *. wall_ms in
  Format.fprintf ppf
    "@[<v>wall %.1f ms × %d slot(s); %.1f%% attributed; %.1f MB allocated; \
     gc %d minor / %d major@,"
    wall_ms r.worker_slots (100. *. r.attributed) (r.alloc_bytes /. 1e6)
    r.minor_collections r.major_collections;
  List.iter
    (fun p ->
      let ms = ns_to_ms p.ns in
      Format.fprintf ppf "  %-14s %10.1f ms  %5.1f%%  %9d calls@," p.phase ms
        (if denom > 0. then 100. *. ms /. denom else 0.)
        p.calls)
    r.totals;
  Format.fprintf ppf "@]"

let report_json r =
  Json.Obj
    [
      ("wall_ms", Json.Float (ns_to_ms r.wall_ns));
      ("worker_slots", Json.Int r.worker_slots);
      ("attributed_frac", Json.Float r.attributed);
      ("alloc_bytes", Json.Float r.alloc_bytes);
      ("minor_collections", Json.Int r.minor_collections);
      ("major_collections", Json.Int r.major_collections);
      ("top_heap_bytes", Json.Int r.top_heap_bytes);
      ( "phases",
        Json.Obj
          (List.map
             (fun p ->
               ( p.phase,
                 Json.Obj
                   [
                     ("ms", Json.Float (ns_to_ms p.ns));
                     ("calls", Json.Int p.calls);
                   ] ))
             r.totals) );
    ]

let to_metrics t ~prefix m =
  let r = report t in
  Metrics.set m (prefix ^ ".wall_ms") (ns_to_ms r.wall_ns);
  Metrics.set m (prefix ^ ".attributed_frac") r.attributed;
  Metrics.set m (prefix ^ ".alloc_mb") (r.alloc_bytes /. 1e6);
  Metrics.set m (prefix ^ ".minor_collections")
    (float_of_int r.minor_collections);
  Metrics.set m (prefix ^ ".major_collections")
    (float_of_int r.major_collections);
  List.iter
    (fun p ->
      Metrics.set m (prefix ^ ".phase_ms." ^ p.phase) (ns_to_ms p.ns);
      Metrics.set m
        (prefix ^ ".phase_calls." ^ p.phase)
        (float_of_int p.calls))
    r.totals

(* Mid-run progress event.  Reads other slots' accumulators without
   synchronization — a monitoring-grade approximation, never fed back
   into exploration.  Allocation is the accrued total only (worker
   samples land at level ends), so bytes/state may lag mid-level. *)
let heartbeat t sink ~component ~states =
  let wall = wall_ns t in
  let secs = Int64.to_float wall /. 1e9 in
  let alloc = alloc_bytes t in
  Trace.point sink ~component ~cls:"heartbeat"
    ([
       ("states", Trace.Int states);
       ( "states_per_sec",
         Trace.Float (if secs > 0. then float_of_int states /. secs else 0.) );
       ( "bytes_per_state",
         Trace.Float
           (if states > 0 then alloc /. float_of_int states else 0.) );
       ("wall_ms", Trace.Float (ns_to_ms wall));
     ]
    @ List.map
        (fun p -> ("ms_" ^ p.phase, Trace.Float (ns_to_ms p.ns)))
        (totals t))
