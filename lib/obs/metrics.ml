(* Domain-safety: the registry mutex guards table structure (creation and
   lookup of cells); counters are atomics bumped lock-free once located;
   histogram recorders are sharded per domain (shard index = domain id mod
   shard_count, each shard behind its own mutex) and merged at snapshot
   time.  One registry can therefore be threaded through the parallel
   explorer's worker domains directly. *)

let series_shards = 8

(* A shard's samples, oldest first, unboxed in [samples.(0 .. n-1)]; the
   array doubles when full, so a sample costs 1–2 words of heap. *)
type shard = {
  smu : Mutex.t;
  mutable samples : Float.Array.t;
  mutable n : int;
}

type series = shard array

type t = {
  mu : Mutex.t;  (* guards the three tables' structure *)
  counters : (string, int Atomic.t) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  series : (string, series) Hashtbl.t;
}

let create () =
  {
    mu = Mutex.create ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    series = Hashtbl.create 16;
  }

(* Find-or-create under the registry mutex: concurrent first uses of the
   same name race to the lock, not the table. *)
let cell t table name mk =
  Mutex.lock t.mu;
  let c =
    match Hashtbl.find_opt table name with
    | Some c -> c
    | None ->
        let c = mk () in
        Hashtbl.add table name c;
        c
  in
  Mutex.unlock t.mu;
  c

let find t table name =
  Mutex.lock t.mu;
  let c = Hashtbl.find_opt table name in
  Mutex.unlock t.mu;
  c

let incr ?(by = 1) t name =
  let c = cell t t.counters name (fun () -> Atomic.make 0) in
  ignore (Atomic.fetch_and_add c by)

let count t name =
  match find t t.counters name with Some c -> Atomic.get c | None -> 0

let set t name v =
  let c = cell t t.gauges name (fun () -> ref 0.) in
  c := v

let gauge t name = Option.map (fun c -> !c) (find t t.gauges name)

let mk_series () =
  Array.init series_shards (fun _ ->
      { smu = Mutex.create (); samples = Float.Array.create 0; n = 0 })

let observe t name v =
  let s = cell t t.series name mk_series in
  let sh = s.((Domain.self () :> int) land (series_shards - 1)) in
  Mutex.lock sh.smu;
  let cap = Float.Array.length sh.samples in
  if sh.n = cap then begin
    let grown = Float.Array.create (max 16 (2 * cap)) in
    Float.Array.blit sh.samples 0 grown 0 cap;
    sh.samples <- grown
  end;
  Float.Array.set sh.samples sh.n v;
  sh.n <- sh.n + 1;
  Mutex.unlock sh.smu

let now_ms () = Unix.gettimeofday () *. 1000.

let time t name f =
  let t0 = now_ms () in
  Fun.protect ~finally:(fun () -> observe t name (now_ms () -. t0)) f

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Stats.summary option) list;
}

(* Merge the per-domain shards into one sample list: the last shard
   first, oldest first within a shard. *)
let series_samples (s : series) =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.smu;
      let acc = ref acc in
      for i = sh.n - 1 downto 0 do
        acc := Float.Array.get sh.samples i :: !acc
      done;
      Mutex.unlock sh.smu;
      !acc)
    [] s

let snapshot (t : t) : snapshot =
  let bindings table =
    Mutex.lock t.mu;
    let bs = Hashtbl.fold (fun name c acc -> (name, c) :: acc) table [] in
    Mutex.unlock t.mu;
    List.sort (fun (a, _) (b, _) -> String.compare a b) bs
  in
  {
    counters = List.map (fun (n, c) -> (n, Atomic.get c)) (bindings t.counters);
    gauges = List.map (fun (n, c) -> (n, !c)) (bindings t.gauges);
    histograms =
      List.map
        (fun (n, s) -> (n, Stats.summarize_opt (series_samples s)))
        (bindings t.series);
  }

let pp_snapshot ppf s =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, n) -> Format.fprintf ppf "%-40s %10d@," name n)
    s.counters;
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-40s %10.3f@," name v)
    s.gauges;
  List.iter
    (fun (name, summary) ->
      match summary with
      | None -> Format.fprintf ppf "%-40s (no samples)@," name
      | Some sm -> Format.fprintf ppf "%-40s %a@," name Stats.pp_summary sm)
    s.histograms;
  Format.fprintf ppf "@]"

let summary_json (s : Stats.summary) =
  Json.Obj
    [
      ("n", Json.Int s.n);
      ("mean", Json.Float s.mean);
      ("stddev", Json.Float s.stddev);
      ("min", Json.Float s.min);
      ("max", Json.Float s.max);
      ("p50", Json.Float s.p50);
      ("p90", Json.Float s.p90);
      ("p99", Json.Float s.p99);
    ]

let snapshot_json s =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) s.counters) );
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.gauges));
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, summary) ->
               ( k,
                 match summary with
                 | None -> Json.Null
                 | Some sm -> summary_json sm ))
             s.histograms) );
    ]

let snapshot_to_string s = Json.to_string (snapshot_json s)

(* Write to a temp name in the same directory, then rename: a reader (or
   a crash mid-write) never sees a partial snapshot. *)
let write_file ~path s =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (snapshot_to_string s);
      output_char oc '\n');
  Sys.rename tmp path
