(* One workload run's result: the correctness verdict, the operation
   counts and the metrics, the file a child process hands it back to
   the parent in, and the summary statistics the repeat harness
   prints. *)

type metric = { name : string; unit : string; value : float }

type t = {
  workload : string;
  failures : string list;  (** failed correctness checks; [] = correct *)
  attempted : int;
  failed : int;
  e2e : metric list;
  layer : metric list;
}

(* Every workload reports every metric: a layer a workload does not
   exercise reads 0.  The lists fix the order of the printed table. *)
let e2e_units =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("verdict_s", "s");
    ("cpu_us_per_op", "us");
    ("alloc_bytes_per_op", "B");
    ("peak_rss_mb", "MB");
  ]

let gate_entries =
  [
    "vs-spec"; "dvs-spec"; "dvs-impl"; "to-spec"; "to-impl"; "vs-stack";
    "vs-stack-faulty"; "full-stack";
  ]

let layer_units =
  [
    ("check.explorer.expand_self_ms", "ms");
    ("check.codec.encode_ms", "ms");
    ("check.fingerprint.hash_ms", "ms");
    ("check.fingerprint.dedup_ms", "ms");
    ("check.explorer.unattributed_frac", "ratio");
    ("check.explorer.new_state_ratio", "ratio");
    ("check.explorer.alloc_mb", "MB");
    ("model.candidates_ms", "ms");
    ("model.enabled_ms", "ms");
    ("model.step_ms", "ms");
    ("model.candidates", "count");
    ("model.fired_ratio", "ratio");
    ("analysis.key_ms", "ms");
    ("analysis.key_calls", "count");
    ("analysis.audit_ms", "ms");
    ("analysis.invariants_ms", "ms");
    ("analysis.check_step_ms", "ms");
    ("analysis.post_ms", "ms");
  ]
  @ List.map (fun e -> ("analysis.entry." ^ e ^ ".wall_ms", "ms")) gate_entries
  @ [
      ("live.hub.cpu_user_ms", "ms");
      ("live.hub.cpu_sys_ms", "ms");
      ("live.hub.cpu_us_per_msg", "us");
      ("live.hub.polls", "count");
      ("live.hub.poll_ms", "ms");
      ("live.hub.inject_ms", "ms");
      ("live.hub.inject_refused", "count");
      ("live.hub.undeliverable", "count");
      ("live.hub.collector_frac", "ratio");
      ("live.endpoint.cpu_user_ms", "ms");
      ("live.endpoint.cpu_sys_ms", "ms");
      ("live.endpoint.cpu_us_per_msg", "us");
      ("live.endpoint.max_cpu_frac", "ratio");
      ("live.endpoint.rss_mb", "MB");
      ("live.endpoint.trace_frac", "ratio");
      ("live.proxy.pkts_per_msg", "ratio");
      ("live.proxy.dropped", "count");
      ("live.proxy.duplicated", "count");
      ("live.proxy.reordered", "count");
      ("live.proxy.partitioned", "count");
      ("membership.views_issued", "count");
      ("membership.disconnects", "count");
      ("membership.lost_frac", "ratio");
      ("vs_impl.engine.sequenced_per_msg", "ratio");
      ("vs_impl.engine.deliver_per_msg", "ratio");
      ("obs.trace.events_per_msg", "ratio");
      ("obs.trace.file_bytes_per_msg", "B");
      ("obs.trace.parse_errors", "count");
      ("obs.trace.parse_ns", "ns");
      ("obs.trace.render_ns", "ns");
      ("obs.monitor.feed_ns", "ns");
      ("live.wire.trace_encode_ns", "ns");
      ("live.wire.trace_decode_ns", "ns");
      ("live.wire.trace_frame_bytes", "B");
      ("live.latency_p50_ms", "ms");
      ("live.latency_p90_ms", "ms");
      ("live.latency_p99_ms", "ms");
      ("live.latency_max_ms", "ms");
      ("live.latency_samples", "count");
      ("live.gen_late_p99_ms", "ms");
      ("bench.trace_overhead_frac", "ratio");
    ]

(* Complete [values] to the canonical list, in its order. *)
let complete units values =
  List.map
    (fun (name, unit) ->
      { name; unit; value = Option.value ~default:0. (List.assoc_opt name values) })
    units

let make ~workload ~failures ~attempted ~failed ~e2e ~layer =
  {
    workload;
    failures;
    attempted;
    failed;
    e2e = complete e2e_units e2e;
    layer = (if layer = [] then [] else complete layer_units layer);
  }

(* ---- hand-off file ---- *)

(* The child writes its result with [Marshal] and the parent reads it
   back; both sides are the same executable. *)
let write_file path (t : t) =
  Out_channel.with_open_bin path (fun oc -> Marshal.to_channel oc t [])

let read_file path : (t, string) result =
  match In_channel.with_open_bin path Marshal.from_channel with
  | t -> Ok t
  | exception (Sys_error e | Failure e) -> Error e
  | exception End_of_file -> Error (path ^ ": truncated")

(* ---- statistics ---- *)

(* Quartiles by the method Python's [statistics.quantiles(xs, n=4)]
   uses by default ("exclusive"), so the repeat harness reports the
   same spread an outside check computes.  With one sample every
   quartile is that sample. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m
