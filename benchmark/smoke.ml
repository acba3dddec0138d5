(* Smoke test of the benchmark: every workload in --quick mode, traced
   and untraced, through the same executable the benchmark command
   runs.  Checks that every correctness check passes and that every
   metric BENCHMARK.json declares is emitted, with its declared unit,
   by every workload. *)

let out = "smoke_out"

let json_file path =
  match Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" path e

let member path j =
  List.fold_left
    (fun j k ->
      match Obs.Json.member k j with
      | Some v -> v
      | None -> Alcotest.failf "missing field %s" (String.concat "." path))
    j path

let str = function Obs.Json.Str s -> s | _ -> Alcotest.fail "expected a string"
let list = function Obs.Json.List l -> l | _ -> Alcotest.fail "expected a list"

(* One quick traced run of all workloads, shared by the test cases. *)
let run =
  lazy
    (let status =
       Unix.system
         (Printf.sprintf "./bench.exe --quick --trace 1 --out %s > %s/stdout 2> %s/stderr"
            out out out)
     in
     (status, json_file (Filename.concat out "result.json")))

let () = if not (Sys.file_exists out) then Unix.mkdir out 0o755

let test_checks () =
  let status, result = Lazy.force run in
  let failures = List.map str (list (member [ "failures" ] result)) in
  Alcotest.(check (list string)) "failed checks" [] failures;
  Alcotest.(check bool) "exit status 0" true (status = Unix.WEXITED 0)

let test_metrics () =
  let _, result = Lazy.force run in
  let decl = json_file "../BENCHMARK.json" in
  let workloads =
    List.map (fun w -> str (member [ "name" ] w)) (list (member [ "workloads" ] decl))
  in
  List.iter
    (fun (section, key) ->
      List.iter
        (fun m ->
          let name = str (member [ "name" ] m) and unit = str (member [ "unit" ] m) in
          List.iter
            (fun w ->
              let got = member [ "workloads"; w; section; name; "unit" ] result in
              Alcotest.(check string) (w ^ " " ^ name) unit (str got))
            workloads)
        (list (member [ key ] decl)))
    [ ("end_to_end", "end_to_end"); ("per_layer", "per_layer") ]

let () =
  Alcotest.run "benchmark"
    [
      ( "quick",
        [
          Alcotest.test_case "every correctness check passes" `Slow test_checks;
          Alcotest.test_case "every declared metric is emitted" `Slow test_metrics;
        ] );
    ]
