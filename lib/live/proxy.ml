open Prelude

type verdict = Drop | Once | Twice | Once_then of bytes

type t = {
  rng : Random.State.t;
  metrics : Obs.Metrics.t option;
  mutable intensity : Sim.Faults.intensity;
  mutable partition : Sim.Partition.t option;  (* None = fully connected *)
  mutable stash : (Proc.t * Proc.t * bytes) list;
      (* held images, at most one per channel, newest first *)
}

let create ?metrics ~seed () =
  {
    rng = Random.State.make [| seed; 0x11fe |];
    metrics;
    intensity = Sim.Faults.calm;
    partition = None;
    stash = [];
  }

let count t name =
  match t.metrics with None -> () | Some m -> Obs.Metrics.incr m name

let set_phase t (ph : Sim.Faults.phase) =
  t.intensity <- ph.Sim.Faults.intensity;
  t.partition <- Some ph.Sim.Faults.partition

let clear t =
  t.intensity <- Sim.Faults.calm;
  t.partition <- None

let connected t src dst =
  match t.partition with
  | None -> true
  | Some part -> (
      match Sim.Partition.component_of part src with
      | None -> false
      | Some comp -> Proc.Set.mem dst comp)

let rec holds src dst = function
  | [] -> false
  | (s, d, _) :: rest -> (Proc.equal s src && Proc.equal d dst) || holds src dst rest

(* The channel's held image, taken out of the stash.  Only called when
   [holds] is true, so the scan of the (short, usually empty) stash that
   every packet pays allocates nothing. *)
let take t src dst =
  let held, rest =
    List.partition (fun (s, d, _) -> Proc.equal s src && Proc.equal d dst) t.stash
  in
  t.stash <- rest;
  match held with [ (_, _, image) ] -> image | _ -> assert false

let route t ~src ~dst b ~pos ~len =
  if not (connected t src dst) then begin
    count t "proxy.partitioned";
    Drop
  end
  else begin
    count t "proxy.routed";
    (* a channel releasing a held packet skips fresh fault draws: the
       swap is the fault *)
    if holds src dst t.stash then Once_then (take t src dst)
    else
      let i = t.intensity in
      let u = Random.State.float t.rng 1.0 in
      if u < i.Sim.Faults.drop then begin
        count t "proxy.dropped";
        Drop
      end
      else if u < i.Sim.Faults.drop +. i.Sim.Faults.duplicate then begin
        count t "proxy.duplicated";
        Twice
      end
      else if
        u < i.Sim.Faults.drop +. i.Sim.Faults.duplicate +. i.Sim.Faults.reorder
      then begin
        count t "proxy.reordered";
        t.stash <- (src, dst, Bytes.sub b pos len) :: t.stash;
        Drop
      end
      else Once
  end

let flush t =
  let held = List.rev t.stash in
  t.stash <- [];
  held
