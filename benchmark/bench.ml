(* bench: the repository benchmark.

   Four workloads — [explore], [registry_gate], [live_paced],
   [live_storm] (see README.md for why each exists) — each run in a
   fresh child process of this executable, so peak memory and GC state
   never carry over from one workload to the next.  The parent prints
   every metric with its unit, writes one JSON result, and prints a
   one-line JSON summary last; it exits nonzero if any correctness check
   failed.

   [--trace 1] runs each workload twice, untraced and then traced: the
   untraced run gives the end-to-end metrics, the traced run the
   per-layer metrics (and a spans file), and the two together the
   tracing overhead.  [--reps k] repeats everything k times, alternating
   the workload order and advancing the seed by one per repetition, and
   reports medians and quartiles. *)

let workloads = [ "explore"; "registry_gate"; "live_paced"; "live_storm" ]

(* Per-workload default seeds: the explorer inputs are fixed registry
   configurations; the live seeds drive the proxy's fault draws and the
   payloads. *)
let default_seed = function "live_paced" -> 1 | "live_storm" -> 2 | _ -> 0

type opts = {
  mutable selected : string list;
  mutable seed : int option;
  mutable seconds : float;
  mutable trace : bool;
  mutable reps : int;
  mutable quick : bool;
  mutable dvsd : string;
  mutable out : string;
  mutable child_result : string;  (** child mode: where to write the result *)
}

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
    end
  in
  go dir

(* ---- child: one workload, one run ---- *)

let run_child o workload ~seed =
  let spans_path = Filename.concat o.out (workload ^ ".spans.json") in
  let live load =
    let dir = Filename.concat o.out (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
    mkdir_p dir;
    Fun.protect
      ~finally:(fun () -> try Sys.rmdir dir with Sys_error _ -> ())
      (fun () ->
        Fleet.run ~spans_path
          {
            Fleet.load;
            seed;
            window = (if o.quick then 2. else o.seconds);
            dvsd = o.dvsd;
            dir;
            trace = o.trace;
            setup_reps = (if o.quick then 1 else 9);
          })
  in
  let is_quick = o.quick in
  let r =
    match workload with
    | "explore" -> Inproc.explore ~is_quick ~trace:o.trace ~spans_path
    | "registry_gate" ->
        Inproc.registry_gate ~is_quick ~trace:o.trace ~spans_path
    | "live_paced" -> live (Fleet.Paced 8000.)
    | "live_storm" -> live (Fleet.Storm 2000)
    | w -> failwith ("unknown workload " ^ w)
  in
  Outcome.write_file o.child_result r

(* ---- parent ---- *)

let child_timeout = 170.

(* Run one workload in a fresh process of this executable. *)
let spawn_child o workload ~seed ~trace =
  let result =
    Filename.concat o.out
      (Printf.sprintf "%s-%s.result" workload (if trace then "traced" else "plain"))
  in
  (try Sys.remove result with Sys_error _ -> ());
  let args =
    [
      Sys.executable_name; "--child"; result; "--workload"; workload; "--seed";
      string_of_int seed; "--seconds"; string_of_float o.seconds; "--trace";
      (if trace then "1" else "0"); "--dvsd"; o.dvsd; "--out"; o.out;
    ]
    @ if o.quick then [ "--quick" ] else []
  in
  Printf.eprintf "bench: %s seed %d%s\n%!" workload seed (if trace then " (traced)" else "");
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
      Unix.stderr Unix.stderr
  in
  let deadline = Unix.gettimeofday () +. child_timeout in
  let rec wait signalled =
    match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ ->
        let late = Unix.gettimeofday () > deadline in
        if late && not signalled then Unix.kill pid Sys.sigterm;
        if Unix.gettimeofday () > deadline +. 10. then Unix.kill pid Sys.sigkill;
        ignore (Unix.select [] [] [] 0.05);
        wait (signalled || late)
    | _, status -> status
    | exception Unix.Unix_error (EINTR, _, _) -> wait signalled
  in
  let status = wait false in
  match (status, Outcome.read_file result) with
  | Unix.WEXITED 0, Ok r -> r
  | _, (Ok _ | Error _) ->
      let why =
        match status with
        | Unix.WEXITED n -> Printf.sprintf "exited with code %d" n
        | Unix.WSIGNALED n | Unix.WSTOPPED n -> Printf.sprintf "killed by signal %d" n
      in
      Outcome.make ~workload
        ~failures:[ Printf.sprintf "%s run %s" workload why ]
        ~attempted:1 ~failed:1 ~e2e:[] ~layer:[]

let fmt v = Printf.sprintf "%.6g" v

(* One workload's repetitions: median and quartiles per metric. *)
let summarize runs select =
  match runs with
  | [] -> []
  | r :: _ ->
      List.map
        (fun (m : Outcome.metric) ->
          let vs =
            List.map
              (fun r ->
                (* a crashed run reports no metrics *)
                match List.find_opt (fun (x : Outcome.metric) -> x.name = m.name) (select r) with
                | Some x -> x.value
                | None -> nan)
              runs
          in
          let q1, med, q3 = Outcome.quartiles vs in
          (m, vs, q1, med, q3))
        (select r)

let print_table workload rows =
  List.iter
    (fun ((m : Outcome.metric), vs, q1, med, q3) ->
      if List.length vs = 1 then
        Printf.printf "%-14s %-40s %14s %s\n" workload m.name (fmt med) m.unit
      else
        Printf.printf "%-14s %-40s %14s %-6s q1 %s q3 %s spread %.2f%%\n" workload
          m.name (fmt med) m.unit (fmt q1) (fmt q3)
          (if med = 0. then 0. else 100. *. (q3 -. q1) /. Float.abs med))
    rows

let run_parent o =
  mkdir_p o.out;
  let sel = if o.selected = [] then workloads else List.rev o.selected in
  let results = Hashtbl.create 8 in
  for rep = 0 to o.reps - 1 do
    List.iter
      (fun w ->
        let seed = Option.value o.seed ~default:(default_seed w) + rep in
        let plain = spawn_child o w ~seed ~trace:false in
        let traced =
          if not o.trace then None
          else begin
            let t = spawn_child o w ~seed ~trace:true in
            let cost (r : Outcome.t) =
              match List.find_opt (fun (m : Outcome.metric) -> m.name = "cpu_us_per_op") r.e2e with
              | Some m -> m.value
              | None -> nan
            in
            let overhead = (cost t /. cost plain) -. 1. in
            Some
              {
                t with
                layer =
                  List.map
                    (fun (m : Outcome.metric) ->
                      if m.name = "bench.trace_overhead_frac" then { m with value = overhead }
                      else m)
                    t.layer;
              }
          end
        in
        Hashtbl.add results w (plain, traced))
      (if rep mod 2 = 0 then sel else List.rev sel)
  done;
  let per_workload =
    List.map (fun w -> (w, List.rev (Hashtbl.find_all results w))) sel
  in
  let all_runs =
    List.concat_map
      (fun (_, runs) ->
        List.concat_map (fun (p, t) -> p :: Option.to_list t) runs)
      per_workload
  in
  (* table and result file *)
  let summaries =
    List.map
      (fun (w, runs) ->
        let plain = List.map fst runs in
        let traced = List.filter_map snd runs in
        let e2e = summarize plain (fun r -> r.Outcome.e2e) in
        let layer = summarize traced (fun r -> r.Outcome.layer) in
        print_table w e2e;
        print_table w layer;
        (w, e2e, layer))
      per_workload
  in
  let failures = List.concat_map (fun (r : Outcome.t) -> r.failures) all_runs in
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) failures;
  let correct = failures = [] in
  let attempted = List.fold_left (fun n (r : Outcome.t) -> n + r.attempted) 0 all_runs in
  let failed = List.fold_left (fun n (r : Outcome.t) -> n + r.failed) 0 all_runs in
  let open Obs.Json in
  let metric_json (m : Outcome.metric) v =
    Obj [ ("value", Float v); ("unit", Str m.unit) ]
  in
  let stats_json rows =
    Obj
      (List.map
         (fun ((m : Outcome.metric), vs, q1, med, q3) ->
           ( m.name,
             Obj
               [
                 ("unit", Str m.unit); ("median", Float med); ("q1", Float q1);
                 ("q3", Float q3); ("values", List (List.map (fun v -> Float v) vs));
               ] ))
         rows)
  in
  let result =
    Obj
      [
        ("correct", Bool correct);
        ("failures", List (List.map (fun s -> Str s) failures));
        ("reps", Int o.reps);
        ("quick", Bool o.quick);
        ( "workloads",
          Obj
            (List.map
               (fun (w, e2e, layer) ->
                 (w, Obj [ ("end_to_end", stats_json e2e); ("per_layer", stats_json layer) ]))
               summaries) );
      ]
  in
  Out_channel.with_open_bin (Filename.concat o.out "result.json") (fun oc ->
      output_string oc (to_string result);
      output_char oc '\n');
  (* the summary line: the end-to-end metrics, and with --trace 1 the
     per-layer ones too; one workload's under their bare names, several
     workloads' as <workload>.<metric> *)
  let metrics =
    List.concat_map
      (fun (w, e2e, layer) ->
        List.map
          (fun ((m : Outcome.metric), _, _, med, _) ->
            ((if List.length sel = 1 then m.name else w ^ "." ^ m.name), metric_json m med))
          (if o.trace then e2e @ layer else e2e))
      summaries
  in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int attempted);
            ("failed", Int failed);
            ("metrics", Obj metrics);
          ]));
  exit (if correct then 0 else 1)

let () =
  let o =
    {
      selected = [];
      seed = None;
      seconds = 20.;
      trace = false;
      reps = 1;
      quick = false;
      dvsd = Filename.concat (Filename.dirname Sys.executable_name) "../bin/dvsd.exe";
      out = "_build/bench_out";
      child_result = "";
    }
  in
  let specs =
    [
      ( "--workload",
        Arg.String
          (fun w ->
            if not (List.mem w workloads) then
              raise (Arg.Bad ("unknown workload " ^ w ^ "; one of " ^ String.concat ", " workloads));
            o.selected <- w :: o.selected),
        "W  run this workload (repeatable; default: all four)" );
      ("--seed", Arg.Int (fun s -> o.seed <- Some s), "N  input seed (default per workload)");
      (* BENCHMARK.json's run_seconds, which the benchmark's callers pass
         on every run.  Capped at 60 s so a live child (window, up to 35 s
         of drain and snapshot waits, set-up) stays inside child_timeout. *)
      ( "--seconds",
        Arg.Float
          (fun s ->
            if not (s >= 1. && s <= 60.) then raise (Arg.Bad "--seconds must be 1 to 60");
            o.seconds <- s),
        "S  live injection window, 1 to 60 (default 20)" );
      ( "--trace",
        Arg.Int (fun t -> o.trace <- t <> 0),
        "0|1  also run traced and report the per-layer metrics" );
      ("--reps", Arg.Int (fun k -> o.reps <- max 1 k), "K  repetitions (default 1)");
      ("--quick", Arg.Unit (fun () -> o.quick <- true), " small bounds and 2 s windows (smoke test)");
      ("--dvsd", Arg.String (fun p -> o.dvsd <- p), "PATH  endpoint daemon binary");
      ("--out", Arg.String (fun d -> o.out <- d), "DIR  result directory (default _build/bench_out)");
      ("--child", Arg.String (fun p -> o.child_result <- p), "PATH  internal: run one workload");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--reps K] [--quick]";
  if o.child_result = "" then run_parent o
  else begin
    (* the parent's timeout: unwind, so the fleet's endpoints are reaped *)
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> failwith "timed out"));
    match o.selected with
    | [ w ] -> run_child o w ~seed:(Option.value o.seed ~default:(default_seed w))
    | _ -> failwith "--child needs exactly one --workload"
  end
