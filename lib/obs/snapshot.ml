module Metrics = Stramash_sim.Metrics

type t = { mutable sections : (string * Json.t) list (* reverse order *) }

let create () = { sections = [] }

let add_json t name json = t.sections <- (name, json) :: t.sections

let add_counters t name pairs =
  add_json t name (Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) pairs))

let add_registry t name reg = add_counters t name (Metrics.to_assoc reg)

let add_trace t tracer = add_json t "trace" (Trace.attribution_json tracer)

let add_causal t tracer =
  add_json t "blocked_on_remote" (Trace.blocked_json tracer);
  let flows = Causal.flows_of_events (Trace.events tracer) in
  let cross = Causal.cross_node_flows flows in
  add_json t "critical_path"
    (Json.Obj
       [
         ("flows", Json.Int (List.length flows));
         ("cross_node_flows", Json.Int (List.length cross));
         ("blame", Causal.blame_json (Causal.blame flows));
       ])

let sections t = List.rev t.sections

let to_json t = Json.Obj (sections t)

let to_string t = Json.to_string (to_json t)

let of_json json =
  match Json.get_obj json with
  | Some fields -> Ok { sections = List.rev fields }
  | None -> Error "snapshot: expected a JSON object"

let section t name = List.assoc_opt name (sections t)

let counters t name =
  match section t name with
  | Some (Json.Obj fields) ->
      List.filter_map
        (fun (k, v) -> match Json.get_int v with Some n -> Some (k, n) | None -> None)
        fields
  | _ -> []
