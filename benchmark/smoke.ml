(* Smoke check of the benchmark:
     smoke.exe BENCHMARK.json MAIN-EXE
   runs npb-mem briefly, untraced and traced. Each run must exit 0, print
   every metric BENCHMARK.json declares for its mode (end_to_end or
   per_layer), and no other, as "name value unit" lines with the declared
   units, and end with a result line that reports correct and carries the
   same metrics. *)

module Json = Stramash_obs.Json

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("smoke: " ^ msg); exit 1) fmt

let parse_file path =
  match Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e

let field name j = match Json.member name j with Some v -> v | None -> fail "missing field %s" name
let str j = match Json.get_string j with Some s -> s | None -> fail "expected a string"
let sorted l = List.sort compare l

(* One short npb-mem run in [trace] mode must print exactly the metrics
   BENCHMARK.json declares under [key], with their units. *)
let check ~benchmark ~exe ~trace ~key =
  let declared =
    match Json.get_list (field key benchmark) with
    | Some ms -> sorted (List.map (fun mt -> (str (field "name" mt), str (field "unit" mt))) ms)
    | None -> fail "%s is not a list" key
  in
  let run =
    Unix.open_process_args_in exe
      [| exe; "--workload"; "npb-mem"; "--seed"; "1"; "--seconds"; "1"; "--trace"; trace;
         "--out"; "smoke-samples.json" |]
  in
  let lines = In_channel.input_lines run |> List.filter (fun l -> l <> "") in
  (match Unix.close_process_in run with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "the --trace %s run did not exit 0" trace);
  let result, metric_lines =
    match List.rev lines with last :: rest -> (last, List.rev rest) | [] -> fail "no output"
  in
  let printed =
    sorted
      (List.map
         (fun line ->
           match String.split_on_char ' ' line with
           | [ name; _; unit_ ] -> (name, unit_)
           | _ -> fail "not a metric line: %s" line)
         metric_lines)
  in
  if printed <> declared then fail "--trace %s printed other metrics than %s declares" trace key;
  let result = match Json.parse result with Ok j -> j | Error e -> fail "result line: %s" e in
  if field "correct" result <> Json.Bool true then fail "the --trace %s run reports correct = false" trace;
  let reported =
    match Json.get_obj (field "metrics" result) with
    | Some ms -> sorted (List.map (fun (name, mt) -> (name, str (field "unit" mt))) ms)
    | None -> fail "metrics is not an object"
  in
  if reported <> declared then fail "the --trace %s result line carries other metrics than %s" trace key;
  Printf.printf "smoke: --trace %s prints the %d %s metrics as declared\n" trace (List.length declared) key

let () =
  if Array.length Sys.argv <> 3 then fail "usage: smoke.exe BENCHMARK.json MAIN-EXE";
  let benchmark = parse_file Sys.argv.(1) in
  let exe = Sys.argv.(2) in
  let exe = if Filename.is_implicit exe then Filename.concat Filename.current_dir_name exe else exe in
  check ~benchmark ~exe ~trace:"0" ~key:"end_to_end";
  check ~benchmark ~exe ~trace:"1" ~key:"per_layer"
