(* Readers for /proc/<pid>/stat and /proc/<pid>/status: the only way to
   see the CPU time and peak memory of the endpoint processes the live
   workloads spawn.  Linux reports stat times in USER_HZ ticks, which
   the kernel fixes at 100 per second for user space. *)

type cpu = { user_s : float; sys_s : float }

let zero = { user_s = 0.; sys_s = 0. }
let add a b = { user_s = a.user_s +. b.user_s; sys_s = a.sys_s +. b.sys_s }
let sub a b = { user_s = a.user_s -. b.user_s; sys_s = a.sys_s -. b.sys_s }
let total c = c.user_s +. c.sys_s
let ticks_per_s = 100.

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* Fields after the parenthesised command name, which may itself hold
   spaces: utime and stime are the 14th and 15th fields overall, the
   12th and 13th after the name. *)
let cpu pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let i = String.rindex s ')' + 2 in
  let f =
    Array.of_list (String.split_on_char ' ' (String.sub s i (String.length s - i)))
  in
  {
    user_s = float_of_string f.(11) /. ticks_per_s;
    sys_s = float_of_string f.(12) /. ticks_per_s;
  }

(* The process's own CPU time, at the resolution getrusage gives. *)
let self_cpu () =
  let t = Unix.times () in
  { user_s = t.Unix.tms_utime; sys_s = t.Unix.tms_stime }

(* Peak resident set (VmHWM) in MB. *)
let hwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  read_file path |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
                 Some (float_of_int kb /. 1024.))
         | _ -> None)
  |> Option.value ~default:0.
