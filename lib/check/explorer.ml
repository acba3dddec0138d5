type stats = { states : int; transitions : int; depth : int; truncated : bool }

let pp_stats ppf s =
  Format.fprintf ppf "%d states, %d transitions, depth %d%s" s.states
    s.transitions s.depth
    (if s.truncated then " (truncated)" else "")

type ('s, 'a) observation = {
  obs_state : 's;
  obs_depth : int;
  obs_candidates : 'a list;
  obs_enabled : 'a list;
}

type trace = {
  trace_parents : (Fingerprint.t * int) Fingerprint.Table.t;
  trace_init : Fingerprint.t;
}

type ('s, 'a) outcome = {
  stats : stats;
  violation : 's Ioa.Invariant.violation option;
  violation_step : ('s, 'a) Ioa.Exec.step option;
  step_failure : (('s, 'a) Ioa.Exec.step * string) option;
  key_clash : ('s * 's) option;
  trace : trace option;
  por_skipped : int;
  orbit_collapsed : int;
}

let component = "check.explorer"

(* Phase vocabulary of the profiled explorer: candidate generation +
   stepping ("expand"), flat codec serialization ("encode" — only the
   codec path spends time here; the string path renders inside
   "fingerprint", as does a codec run's RNG-seed key), key digesting
   ("fingerprint") and the seen-set section ("dedup") are common to both
   engines.  The sharded engine adds
   its coordination costs: "route" (pushing successor batches into other
   workers' rings, including full-ring retries), "flush" (draining the
   own inbound ring) and "idle" (spinning at an empty frontier waiting
   for handoffs or global quiescence).  Nested phases pause the enclosing
   one, so the attributions stay disjoint. *)
let prof_phases =
  [ "expand"; "encode"; "fingerprint"; "dedup"; "route"; "flush"; "idle" ]

let profile ~jobs =
  Obs.Prof.create ~phases:prof_phases ~slots:(max 1 jobs) ()

let progress_event sink (stats : stats) ~frontier =
  Obs.Trace.point sink ~component ~cls:"progress"
    [
      ("states", Obs.Trace.Int stats.states);
      ("transitions", Obs.Trace.Int stats.transitions);
      ("frontier", Obs.Trace.Int frontier);
      ("depth", Obs.Trace.Int stats.depth);
    ]

(* Sharded-engine tuning: successors bound for another worker accumulate
   in a per-destination buffer until [flush_batch] of them hand off as a
   single ring push; [ring_capacity] bounds each worker's inbound ring in
   batches (a full ring reports a stall instead of blocking);
   [expand_chunk] paces how many frontier entries a worker expands
   between drains of its inbound ring. *)
let flush_batch = 64
let ring_capacity = 256
let expand_chunk = 64

let run (type s a)
    (module A : Ioa.Automaton.GENERATIVE with type state = s and type action = a)
    ?key ~invariants ?(seed = [| 0 |]) ?(max_states = 200_000) ?max_depth
    ?(jobs = 1) ?state_rng ?(trace = false) ?check_step ?check_key ?ample
    ?canon ?codec ?(mode = `Deterministic) ?observe ?sink ?metrics ?prof
    ?(progress_every = 10_000) ~init () =
  let jobs = max 1 jobs in
  (match prof with
  | Some p when Obs.Prof.slots p < jobs ->
      invalid_arg "Explorer.run: prof has fewer slots than jobs"
  | Some _ | None -> ());
  let throughput = mode = `Throughput in
  (* Hash compaction keeps fingerprints only: no retained representatives
     to audit keys against, no per-state table slots to hang a trace on. *)
  if throughput && trace then
    invalid_arg "Explorer.run: throughput mode cannot retain a trace";
  if throughput && Option.is_some check_key then
    invalid_arg "Explorer.run: throughput mode cannot audit keys";
  (* Profiling hooks: phase ids interned up front (no worker is running
     yet), hot-path enter/leave resolved to no-ops when [?prof] is absent
     so unprofiled runs stay byte-identical. *)
  let iphase name =
    match prof with Some p -> Obs.Prof.intern p name | None -> 0
  in
  let ph_expand = iphase "expand" in
  let ph_encode = iphase "encode" in
  let ph_fp = iphase "fingerprint" in
  let ph_dedup = iphase "dedup" in
  let ph_route = iphase "route" in
  let ph_flush = iphase "flush" in
  let ph_idle = iphase "idle" in
  let pf_enter, pf_leave =
    match prof with
    | Some p -> (Obs.Prof.enter p, Obs.Prof.leave p)
    | None -> ((fun ~slot:_ _ -> ()), (fun ~slot:_ _ -> ()))
  in
  (* Per-state expansion latency costs two clock reads per state; only
     recorded when both a profiler and a registry are attached. *)
  let obs_latency =
    match (prof, metrics) with
    | Some _, Some m ->
        fun t0 ->
          Obs.Metrics.observe m "explorer.expand_latency_us"
            (Int64.to_float (Int64.sub (Obs.Prof.now_ns ()) t0) /. 1e3)
    | _ -> ignore
  in
  let latency_t0 () =
    match (prof, metrics) with
    | Some _, Some _ -> Obs.Prof.now_ns ()
    | _ -> 0L
  in
  (* Parallel exploration requires candidate sets that are a pure function
     of the state — visit order is scheduling-dependent — so [jobs > 1]
     forces the per-state RNG discipline on, also when a depth cut then
     runs the search sequentially: the explored graph stays the one every
     job count sees. *)
  let state_rng = jobs > 1 || Option.value state_rng ~default:false in
  (* A depth cut needs true BFS depths, and only the sequential engine has
     them: the sharded engine knows discovery depths only. *)
  let jobs = if Option.is_some max_depth then 1 else jobs in
  (* Retain representative states only when auditing the key function; plain
     exploration keeps the table light by storing [init] for every slot. *)
  let retain = Option.is_some check_key in
  let check_state index state =
    List.find_opt
      (fun inv -> not (inv.Ioa.Invariant.holds state))
      invariants
    |> Option.map (fun inv ->
           { Ioa.Invariant.invariant = inv.Ioa.Invariant.name; index; state })
  in
  (* Fingerprint source (the dedup identity): the flat codec image when a
     codec is attached (both modes, so throughput/deterministic parity is
     by construction), the rendered key otherwise.  Codec scratches are
     single-threaded, so the sharded engine indexes one per worker slot;
     the "encode" phase isolates serialization cost from the digest
     proper. *)
  let key_fp key ~slot state =
    pf_enter ~slot ph_fp;
    let fp = Fingerprint.of_string (key state) in
    pf_leave ~slot ph_fp;
    fp
  in
  let fingerprint =
    match (codec, key) with
    | None, None -> invalid_arg "Explorer.run: needs a key or a codec"
    | None, Some key -> key_fp key
    | Some c, _ ->
        let scratches = Array.init jobs (fun _ -> Codec.scratch ()) in
        fun ~slot state ->
          pf_enter ~slot ph_encode;
          let scr = scratches.(slot) in
          Codec.encode_into c scr state;
          pf_leave ~slot ph_encode;
          pf_enter ~slot ph_fp;
          let buf, len = Codec.scratch_contents scr in
          let fp = Fingerprint.of_bytes buf ~pos:0 ~len in
          pf_leave ~slot ph_fp;
          fp
  in
  (* Per-state RNG seed source: the key's fingerprint whenever a key is
     given, the dedup fingerprint otherwise.  Only a codec-deduped run
     that also carries a key renders anything here — once per expanded
     state, charged to "fingerprint" — so it explores the key-seeded
     graph of a key-only run while deduping on the codec. *)
  let seed_fp =
    match (codec, key) with
    | Some _, Some key -> fun ~slot state _ -> key_fp key ~slot state
    | _ -> fun ~slot:_ _ fp -> fp
  in
  let state_rng_of ~slot state fp =
    Random.State.make (Fingerprint.seed (seed_fp ~slot state fp) seed)
  in
  (* Orbit canonicalization rewrites every state to its representative
     before fingerprinting, the initial state included.  Canonicalizers
     return their argument physically when it already is the
     representative, so the [!=] below counts genuine collapses only. *)
  let init = match canon with Some f -> f init | None -> init in
  let init_fp = fingerprint ~slot:0 init in
  let finalize ~stats ~violation ~violation_step ~step_failure ~key_clash
      ~trace:trace_opt ~por_skipped ~orbit_collapsed =
    (match sink with
    | None -> ()
    | Some s ->
        Obs.Trace.point s ~component ~cls:"done"
          [
            ("states", Obs.Trace.Int stats.states);
            ("transitions", Obs.Trace.Int stats.transitions);
            ("depth", Obs.Trace.Int stats.depth);
            ("truncated", Obs.Trace.Bool stats.truncated);
          ]);
    (match metrics with
    | None -> ()
    | Some m ->
        Obs.Metrics.incr ~by:stats.states m "explorer.states";
        Obs.Metrics.incr ~by:stats.transitions m "explorer.transitions";
        Obs.Metrics.set m "explorer.depth" (float_of_int stats.depth);
        Obs.Metrics.set m "explorer.workers" (float_of_int jobs);
        (match ample with
        | None -> ()
        | Some _ -> Obs.Metrics.incr ~by:por_skipped m "explorer.por_skipped");
        (match canon with
        | None -> ()
        | Some _ ->
            Obs.Metrics.incr ~by:orbit_collapsed m "explorer.orbit_collapsed");
        if stats.truncated then Obs.Metrics.incr m "explorer.truncated");
    {
      stats;
      violation;
      violation_step;
      step_failure;
      key_clash;
      trace =
        Option.map
          (fun parents -> { trace_parents = parents; trace_init = init_fp })
          trace_opt;
      por_skipped;
      orbit_collapsed;
    }
  in
  if jobs = 1 then begin
    (* ---------------- sequential engine ---------------------------- *)
    (* A fixed RNG makes generative candidate sets deterministic along the
       BFS order; with [state_rng] they are instead a pure function of each
       state's fingerprint (the discipline the sharded engine uses), so
       the explored graph is identical at every job count. *)
    let rng = Random.State.make seed in
    let seen : s Fingerprint.Table.t =
      Fingerprint.Table.create (if throughput then 1 else 4096)
    in
    let compacted =
      if throughput then Some (Fingerprint.Set.create ~capacity:4096 ())
      else None
    in
    let parents =
      if trace then Some (Fingerprint.Table.create 4096) else None
    in
    let queue : (int * s * Fingerprint.t) Queue.t = Queue.create () in
    (* Plain counters on the hot path; the [stats] record is built only
       for progress events and [finalize]. *)
    let states = ref 0 in
    let transitions = ref 0 in
    let max_depth_seen = ref 0 in
    let truncated = ref false in
    let stats () =
      {
        states = !states;
        transitions = !transitions;
        depth = !max_depth_seen;
        truncated = !truncated;
      }
    in
    let violation = ref None in
    let violation_step = ref None in
    let step_failure = ref None in
    let key_clash = ref None in
    let por_skipped = ref 0 in
    let orbit_collapsed = ref 0 in
    (* [via] is how the state was first reached: the predecessor's
       fingerprint, the action's index in the predecessor's enabled list
       (the hint Cex reconstruction tries first), and the concrete
       transition (for [violation_step]). *)
    let push ?via depth state =
      let state =
        match canon with
        | None -> state
        | Some f ->
            let rep = f state in
            if rep != state then incr orbit_collapsed;
            rep
      in
      let fp = fingerprint ~slot:0 state in
      pf_enter ~slot:0 ph_dedup;
      let fresh =
        match compacted with
        | Some set ->
            (* Hash compaction: membership on the bare fingerprint, no
               representative retained.  A collision silently merges — the
               mode trades the [check_key] audit away for 16 bytes/state. *)
            Fingerprint.Set.add set fp
        | None -> (
            match Fingerprint.Table.find_opt seen fp with
            | Some rep ->
                (* Audit the dedup identity when an equality is available:
                   a collision between states the equality distinguishes
                   means the dedup merged genuinely different states —
                   whether because the codec (or, without one, [key]) is not
                   injective or because two images share a fingerprint — and
                   the exploration is unsound. *)
                (match check_key with
                | Some equal when not (equal rep state) ->
                    key_clash := Some (rep, state)
                | Some _ | None -> ());
                false
            | None ->
                Fingerprint.Table.add seen fp (if retain then state else init);
                (match (parents, via) with
                | Some tbl, Some (pfp, idx, _, _) ->
                    Fingerprint.Table.replace tbl fp (pfp, idx)
                | _ -> ());
                true)
      in
      pf_leave ~slot:0 ph_dedup;
      if fresh then begin
        incr states;
        if depth > !max_depth_seen then max_depth_seen := depth;
        (* The state that crosses [max_states] is counted in [stats], so
           it must be invariant-checked like every other visited state —
           it is only exempt from expansion. *)
        match check_state !states state with
        | Some v ->
            violation := Some v;
            violation_step :=
              Option.map
                (fun (_, _, pre, action) ->
                  { Ioa.Exec.pre; action; post = state })
                via
        | None ->
            if !states > max_states then truncated := true
            else Queue.add (depth, state, fp) queue
      end
    in
    push 0 init;
    let continue () =
      Option.is_none !violation
      && Option.is_none !step_failure
      && Option.is_none !key_clash
      && not !truncated
    in
    let expanded = ref 0 in
    let rec loop () =
      if continue () && not (Queue.is_empty queue) then begin
        let depth, state, fp = Queue.pop queue in
        incr expanded;
        if !expanded mod progress_every = 0 then begin
          (match sink with
          | Some s ->
              progress_event s (stats ()) ~frontier:(Queue.length queue);
              (match prof with
              | Some p ->
                  Obs.Prof.heartbeat p s ~component ~states:!states
              | None -> ())
          | None -> ());
          match metrics with
          | Some m ->
              Obs.Metrics.observe m "explorer.frontier"
                (float_of_int (Queue.length queue))
          | None -> ()
        end;
        let expand =
          match max_depth with Some d -> depth < d | None -> true
        in
        if expand then begin
          pf_enter ~slot:0 ph_expand;
          let lat0 = latency_t0 () in
          let rng = if state_rng then state_rng_of ~slot:0 state fp else rng in
          let candidates = A.candidates rng state in
          let actions = List.filter (A.enabled state) candidates in
          (match observe with
          | None -> ()
          | Some f ->
              f
                {
                  obs_state = state;
                  obs_depth = depth;
                  obs_candidates = candidates;
                  obs_enabled = actions;
                });
          (* The ample filter sees the full enabled list (observers above
             already did too) and returns the subset to fire; [None] means
             the static facts were inconclusive here — expand fully. *)
          let fired =
            match ample with
            | None -> actions
            | Some f -> (
                match f state actions with
                | None -> actions
                | Some sub ->
                    por_skipped :=
                      !por_skipped + (List.length actions - List.length sub);
                    sub)
          in
          List.iteri
            (fun idx action ->
              if continue () then begin
                let post = A.step state action in
                incr transitions;
                (match check_step with
                | None -> ()
                | Some f -> (
                    let step = { Ioa.Exec.pre = state; action; post } in
                    match f step with
                    | Ok () -> ()
                    | Error msg -> step_failure := Some (step, msg)));
                if continue () then
                  push ~via:(fp, idx, state, action) (depth + 1) post
              end)
            fired;
          obs_latency lat0;
          pf_leave ~slot:0 ph_expand
        end;
        loop ()
      end
    in
    loop ();
    finalize ~stats:(stats ()) ~violation:!violation
      ~violation_step:!violation_step ~step_failure:!step_failure
      ~key_clash:!key_clash ~trace:parents ~por_skipped:!por_skipped
      ~orbit_collapsed:!orbit_collapsed
  end
  else begin
    (* ---------------- sharded barrier-free engine ------------------- *)
    (* Parallel search without level barriers: the fingerprint space is
       range-partitioned over the workers ([Fingerprint.shard]), and each
       worker domain exclusively owns its shard's seen-set — no mutex, no
       striping — plus a private frontier queue.  Successors that hash
       into another worker's shard are batched per destination and handed
       off through that worker's bounded MPSC {!Ring}; everything else
       stays local.  Because admission always runs on the owning domain,
       the dedup decision — and with it the [check_key] audit and the
       [trace] parent record — is single-threaded per shard; the only
       shared-write hot path left is the state-count reservation, one
       wait-free fetch-and-add per fresh state.

       No barrier means no global depth discipline: a worker expands
       whatever its frontier holds while handoffs stream in, so
       [stats.depth] reports the maximum *discovery* depth — an upper
       bound on the BFS eccentricity, tight only when shortest paths are
       discovered first.  [max_depth] cuts need true BFS depths, so those
       runs go to the sequential engine (dispatch above).

       Termination is distributed quiescence over one credit counter:
       [pending] is incremented the moment a successor is routed (before
       it becomes visible anywhere) and decremented when its processing
       ends — duplicate, rejection, or completed expansion.  Workers
       flush their buffered handoffs before idling, so [pending = 0]
       means no frontier entry, ring entry, buffered handoff or in-flight
       expansion exists anywhere: the global done condition.

       On exhaustive runs the explored graph is the same state set and
       transition multiset as the sequential engine's: per-state RNG makes
       candidate draws order-independent, codec/key fingerprints agree,
       and dedup classes are engine-invariant.  Only discovery order —
       and with it [depth], and which states a [max_states] cut happens
       to admit — is scheduling-dependent.

       Each shard's seen-set is the sequential engine's, cut to the
       shard: bare fingerprints under hash compaction, otherwise a table
       of representatives, plus the shard's slice of the parent table
       under [~trace] (merged after the join). *)
    let compacted =
      if throughput then
        Some (Array.init jobs (fun _ -> Fingerprint.Set.create ~capacity:4096 ()))
      else None
    in
    let seen : s Fingerprint.Table.t array =
      Array.init jobs (fun _ ->
          Fingerprint.Table.create (if throughput then 1 else 4096))
    in
    let parents =
      if trace then
        Some (Array.init jobs (fun _ -> Fingerprint.Table.create 4096))
      else None
    in
    let rings :
        (int * s * Fingerprint.t * (Fingerprint.t * int * s * a) option) array
        Ring.t
        array =
      Array.init jobs (fun _ -> Ring.create ~capacity:ring_capacity)
    in
    let frontiers : (int * s * Fingerprint.t) Queue.t array =
      Array.init jobs (fun _ -> Queue.create ())
    in
    let stop = Atomic.make false in
    let truncated = Atomic.make false in
    let states = Atomic.make 0 in
    let pending = Atomic.make 0 in
    let expanded = Atomic.make 0 in
    let handoff_batches = Atomic.make 0 in
    let ring_full_stalls = Atomic.make 0 in
    let por_skipped = Atomic.make 0 in
    let orbit_collapsed = Atomic.make 0 in
    let transitions = Array.make jobs 0 in
    let max_depths = Array.make jobs 0 in
    let result_mu = Mutex.create () in
    let violation = ref None in
    let violation_step = ref None in
    let step_failure = ref None in
    let key_clash = ref None in
    let record cell v =
      Mutex.lock result_mu;
      if Option.is_none !cell then cell := Some v;
      Mutex.unlock result_mu;
      Atomic.set stop true
    in
    (* The violation and its incoming transition are published as one
       unit: a racing worker's violation must not pair with ours. *)
    let record_violation v vstep =
      Mutex.lock result_mu;
      if Option.is_none !violation then begin
        violation := Some v;
        violation_step := vstep
      end;
      Mutex.unlock result_mu;
      Atomic.set stop true
    in
    (* Serializes the [observe] callback and progress emission: neither
       the analyzer's observation accumulator nor the sink implementations
       are required to be thread-safe. *)
    let aux_mu = Mutex.create () in
    (* Admission, called only from the shard's owning domain (or from the
       main domain for [init], before any worker is spawned).  Slot
       [max_states + 1] is the crossing state — counted and
       invariant-checked but never expanded, as in the sequential engine —
       and any racing reservation beyond it is handed back, so the final
       count is exact.  [true] iff the state belongs on the owner's
       frontier. *)
    let admit ~wid depth state fp via =
      pf_enter ~slot:wid ph_dedup;
      let fresh =
        match compacted with
        | Some sets -> Fingerprint.Set.add sets.(wid) fp
        | None -> (
            match Fingerprint.Table.find_opt seen.(wid) fp with
            | Some rep ->
                (match check_key with
                | Some equal when not (equal rep state) ->
                    record key_clash (rep, state)
                | Some _ | None -> ());
                false
            | None ->
                Fingerprint.Table.add seen.(wid) fp
                  (if retain then state else init);
                (match (parents, via) with
                | Some ps, Some (pfp, idx, _, _) ->
                    Fingerprint.Table.replace ps.(wid) fp (pfp, idx)
                | _ -> ());
                true)
      in
      pf_leave ~slot:wid ph_dedup;
      fresh
      && begin
           let n = Atomic.fetch_and_add states 1 + 1 in
           if n > max_states + 1 then begin
             ignore (Atomic.fetch_and_add states (-1));
             false
           end
           else begin
             if depth > max_depths.(wid) then max_depths.(wid) <- depth;
             match check_state n state with
             | Some v ->
                 record_violation v
                   (Option.map
                      (fun (_, _, pre, action) ->
                        { Ioa.Exec.pre; action; post = state })
                      via);
                 false
             | None ->
                 if n > max_states then begin
                   Atomic.set truncated true;
                   Atomic.set stop true;
                   false
                 end
                 else true
           end
         end
    in
    let worker wid () =
      let alloc0 =
        match prof with
        | Some _ when wid > 0 -> Gc.allocated_bytes ()
        | _ -> 0.
      in
      let frontier = frontiers.(wid) in
      let ring = rings.(wid) in
      let outbuf = Array.make jobs [] in
      let outcount = Array.make jobs 0 in
      (* Drains the inbound ring: each popped batch is admitted against
         the own shard; a fresh state keeps its credit (it now stands for
         the frontier entry), everything else settles it here. *)
      let drain_own () =
        if not (Ring.is_empty ring) then begin
          pf_enter ~slot:wid ph_flush;
          let rec go () =
            match Ring.try_pop ring with
            | None -> ()
            | Some batch ->
                Array.iter
                  (fun (depth, state, fp, via) ->
                    if
                      (not (Atomic.get stop))
                      && admit ~wid depth state fp via
                    then Queue.add (depth, state, fp) frontier
                    else Atomic.decr pending)
                  batch;
                go ()
          in
          go ();
          pf_leave ~slot:wid ph_flush
        end
      in
      let flush_dest dest =
        if outcount.(dest) > 0 then begin
          pf_enter ~slot:wid ph_route;
          let batch = Array.of_list outbuf.(dest) in
          outbuf.(dest) <- [];
          outcount.(dest) <- 0;
          let rec push () =
            if Atomic.get stop then
              ignore (Atomic.fetch_and_add pending (-Array.length batch))
            else if Ring.try_push rings.(dest) batch then begin
              Atomic.incr handoff_batches;
              match metrics with
              | Some m ->
                  Obs.Metrics.observe m "explorer.ring_occupancy"
                    (float_of_int (Ring.occupancy rings.(dest)))
              | None -> ()
            end
            else begin
              Atomic.incr ring_full_stalls;
              (* The destination may itself be stalled pushing into our
                 ring; draining our inbox breaks the cycle, so a full
                 ring never deadlocks producers against each other. *)
              drain_own ();
              Domain.cpu_relax ();
              push ()
            end
          in
          push ();
          pf_leave ~slot:wid ph_route
        end
      in
      let flush_all () =
        for d = 0 to jobs - 1 do
          flush_dest d
        done
      in
      (* Routes one successor: credit first (before it becomes visible
         anywhere), then local admission or a buffered handoff toward the
         owning shard. *)
      let route depth post via =
        let post =
          match canon with
          | None -> post
          | Some f ->
              let rep = f post in
              if rep != post then Atomic.incr orbit_collapsed;
              rep
        in
        let fp = fingerprint ~slot:wid post in
        let dest = Fingerprint.shard fp ~shards:jobs in
        Atomic.incr pending;
        if dest = wid then begin
          if admit ~wid depth post fp (Some via) then
            Queue.add (depth, post, fp) frontier
          else Atomic.decr pending
        end
        else begin
          outbuf.(dest) <- (depth, post, fp, Some via) :: outbuf.(dest);
          outcount.(dest) <- outcount.(dest) + 1;
          if outcount.(dest) >= flush_batch then flush_dest dest
        end
      in
      let expand depth state fp =
        let n = Atomic.fetch_and_add expanded 1 + 1 in
        (match sink with
        | Some s when n mod progress_every = 0 ->
            Mutex.lock aux_mu;
            progress_event s
              {
                states = Atomic.get states;
                transitions = Array.fold_left ( + ) 0 transitions;
                depth = Array.fold_left max 0 max_depths;
                truncated = Atomic.get truncated;
              }
              ~frontier:(Queue.length frontier);
            (match prof with
            | Some p ->
                Obs.Prof.heartbeat p s ~component ~states:(Atomic.get states)
            | None -> ());
            Mutex.unlock aux_mu
        | Some _ | None -> ());
        pf_enter ~slot:wid ph_expand;
        let lat0 = latency_t0 () in
        let rng = state_rng_of ~slot:wid state fp in
        let candidates = A.candidates rng state in
        let actions = List.filter (A.enabled state) candidates in
        (match observe with
        | None -> ()
        | Some f ->
            Mutex.lock aux_mu;
            f
              {
                obs_state = state;
                obs_depth = depth;
                obs_candidates = candidates;
                obs_enabled = actions;
              };
            Mutex.unlock aux_mu);
        let fired =
          match ample with
          | None -> actions
          | Some f -> (
              match f state actions with
              | None -> actions
              | Some sub ->
                  Atomic.fetch_and_add por_skipped
                    (List.length actions - List.length sub)
                  |> ignore;
                  sub)
        in
        List.iteri
          (fun idx action ->
            if not (Atomic.get stop) then begin
              let post = A.step state action in
              transitions.(wid) <- transitions.(wid) + 1;
              (match check_step with
              | None -> ()
              | Some f -> (
                  let step = { Ioa.Exec.pre = state; action; post } in
                  match f step with
                  | Ok () -> ()
                  | Error msg -> record step_failure (step, msg)));
              if not (Atomic.get stop) then
                route (depth + 1) post (fp, idx, state, action)
            end)
          fired;
        obs_latency lat0;
        pf_leave ~slot:wid ph_expand
      in
      let rec loop () =
        if not (Atomic.get stop) then begin
          drain_own ();
          if not (Queue.is_empty frontier) then begin
            let k = ref 0 in
            while
              !k < expand_chunk
              && (not (Queue.is_empty frontier))
              && not (Atomic.get stop)
            do
              let depth, state, fp = Queue.pop frontier in
              expand depth state fp;
              Atomic.decr pending;
              incr k
            done;
            flush_all ();
            loop ()
          end
          else begin
            flush_all ();
            if Atomic.get pending > 0 then begin
              (* Nothing local but work exists elsewhere: spin until a
                 handoff arrives or the system quiesces.  Our outbufs
                 were flushed above, so every credit we raised is
                 visible to whoever holds the matching work. *)
              pf_enter ~slot:wid ph_idle;
              while
                (not (Atomic.get stop))
                && Atomic.get pending > 0
                && Ring.is_empty ring
              do
                Domain.cpu_relax ()
              done;
              pf_leave ~slot:wid ph_idle;
              loop ()
            end
          end
        end
      in
      loop ();
      match prof with
      | Some p when wid > 0 ->
          Obs.Prof.add_alloc p ~slot:wid (Gc.allocated_bytes () -. alloc0)
      | _ -> ()
    in
    let init_owner = Fingerprint.shard init_fp ~shards:jobs in
    Atomic.incr pending;
    if admit ~wid:init_owner 0 init init_fp None then
      Queue.add (0, init, init_fp) frontiers.(init_owner)
    else Atomic.decr pending;
    let domains =
      Array.init (jobs - 1) (fun i ->
          Domain.spawn (fun () -> worker (i + 1) ()))
    in
    worker 0 ();
    Array.iter Domain.join domains;
    (match metrics with
    | Some m ->
        Obs.Metrics.incr ~by:(Atomic.get handoff_batches) m
          "explorer.handoff_batches";
        Obs.Metrics.incr ~by:(Atomic.get ring_full_stalls) m
          "explorer.ring_full_stalls"
    | None -> ());
    let stats =
      {
        states = Atomic.get states;
        transitions = Array.fold_left ( + ) 0 transitions;
        depth = Array.fold_left max 0 max_depths;
        truncated = Atomic.get truncated;
      }
    in
    let merged_parents =
      Option.map
        (fun ps ->
          let all = Fingerprint.Table.create 4096 in
          Array.iter (Fingerprint.Table.iter (Fingerprint.Table.replace all)) ps;
          all)
        parents
    in
    finalize ~stats ~violation:!violation ~violation_step:!violation_step
      ~step_failure:!step_failure ~key_clash:!key_clash ~trace:merged_parents
      ~por_skipped:(Atomic.get por_skipped)
      ~orbit_collapsed:(Atomic.get orbit_collapsed)
  end
