module Node_id = Stramash_sim.Node_id

let nnodes = List.length Node_id.all

(* One step of a critical path: [h_cycles] of the end-to-end latency spent
   in (node, subsys, op). Self time of a span and the spans it delegates
   to appear as distinct hops. *)
type hop = { h_node : int; h_subsys : string; h_op : string; h_cycles : int }

(* One assembled flow: the root span of a top-level kernel operation plus
   its extracted critical path. [f_path] hop cycles sum to [f_cycles]
   exactly (the decomposition below tiles the root interval). *)
type flow = {
  f_id : int;
  f_node : int; (* root (requester) node index *)
  f_start : int; (* root start, requester cycles *)
  f_cycles : int; (* end-to-end root duration *)
  f_root_subsys : string;
  f_root_op : string;
  f_path : hop list;
  f_spans : int; (* span events assembled into the flow *)
}

(* ---------- containment forest ---------- *)

type tree = { t_ev : Trace.event; mutable t_kids : tree list (* reverse order *) }

let ev_end (e : Trace.event) = e.ev_ts + e.ev_dur

let contains (outer : Trace.event) (inner : Trace.event) =
  outer.ev_ts <= inner.ev_ts && ev_end inner <= ev_end outer

(* Build a containment forest from span events sharing one clock domain.
   Sorted by (start asc, duration desc), a stack sweep recovers nesting:
   each event's parent is the innermost open interval containing it. The
   sort is stable, so ties resolve by ring (close) order — deterministic
   under a fixed seed. *)
let forest evs =
  let evs =
    List.stable_sort
      (fun (a : Trace.event) (b : Trace.event) ->
        match compare a.ev_ts b.ev_ts with
        | 0 -> (
            (* Equal extents nest by recorded depth (outermost first);
               remaining ties fall back to ring order via stability. *)
            match compare b.ev_dur a.ev_dur with
            | 0 -> compare a.ev_depth b.ev_depth
            | n -> n)
        | n -> n)
      evs
  in
  let roots = ref [] in
  let stack = ref [] in
  List.iter
    (fun ev ->
      let t = { t_ev = ev; t_kids = [] } in
      let rec pop () =
        match !stack with
        | top :: rest when not (contains top.t_ev ev) ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | top :: _ -> top.t_kids <- t :: top.t_kids
      | [] -> roots := t :: !roots);
      stack := t :: !stack)
    evs;
  List.rev !roots

(* ---------- critical path ---------- *)

(* Decompose a root interval: gaps between child intervals are self time
   of the root; each child contributes its own decomposition. A cursor
   sweep keeps the result an exact tiling — children already covered by
   the cursor (overlaps never arise from our span synthesis, but offline
   input is untrusted) are skipped, so hop cycles always sum to the root
   duration. *)
let rec decompose t =
  let ev = t.t_ev in
  let self cycles =
    { h_node = ev.ev_node; h_subsys = ev.ev_subsys; h_op = ev.ev_op; h_cycles = cycles }
  in
  let kids =
    List.rev t.t_kids
    |> List.stable_sort (fun a b -> compare a.t_ev.ev_ts b.t_ev.ev_ts)
  in
  let cursor = ref ev.ev_ts in
  let hops = ref [] in
  List.iter
    (fun kid ->
      if kid.t_ev.ev_ts >= !cursor && kid.t_ev.ev_dur > 0 then begin
        if kid.t_ev.ev_ts > !cursor then hops := self (kid.t_ev.ev_ts - !cursor) :: !hops;
        hops := List.rev_append (decompose kid) !hops;
        cursor := ev_end kid.t_ev
      end)
    kids;
  if ev_end ev > !cursor then hops := self (ev_end ev - !cursor) :: !hops;
  (* Merge adjacent hops with the same attribution so tilings synthesized
     around zero-cycle sub-spans don't fragment the path. *)
  List.fold_left
    (fun acc h ->
      match acc with
      | prev :: rest
        when prev.h_node = h.h_node
             && String.equal prev.h_subsys h.h_subsys
             && String.equal prev.h_op h.h_op ->
          { prev with h_cycles = prev.h_cycles + h.h_cycles } :: rest
      | _ -> h :: acc)
    []
    (List.rev !hops)
  |> List.rev

let rec tree_size t = List.fold_left (fun n k -> n + tree_size k) 1 t.t_kids

(* ---------- flow assembly ---------- *)

(* Group span events by flow id, pick the root (earliest start, widest on
   ties — the flow-root span opened on the requester), drop events not
   contained in the root interval (cross-node events stamped in a foreign
   clock can't be placed on the requester timeline; synthesized responder
   hops are emitted in requester cycles precisely so they anchor), and
   extract the critical path from the containment tree. *)
let flows_of_events events =
  let by_flow : (int, Trace.event list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      if e.ev_flow <> 0 && e.ev_dur >= 0 then
        Hashtbl.replace by_flow e.ev_flow
          (e :: (match Hashtbl.find_opt by_flow e.ev_flow with Some l -> l | None -> [])))
    events;
  Hashtbl.fold (fun id evs acc -> (id, List.rev evs) :: acc) by_flow []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.filter_map (fun (id, evs) ->
         let root =
           List.fold_left
             (fun best (e : Trace.event) ->
               match best with
               | None -> Some e
               | Some b ->
                   if
                     e.ev_ts < b.ev_ts
                     || (e.ev_ts = b.ev_ts && e.ev_dur > b.ev_dur)
                   then Some e
                   else best)
             None evs
         in
         match root with
         | None -> None
         | Some root when root.ev_dur <= 0 -> None
         | Some root ->
             let anchored = List.filter (fun e -> contains root e) evs in
             let tree =
               match forest anchored with
               | [ t ] -> t
               | ts -> (
                   (* Defensive: several equal-extent roots collapse to the
                      first; an empty forest is impossible (root anchors). *)
                   match ts with t :: _ -> t | [] -> assert false)
             in
             Some
               {
                 f_id = id;
                 f_node = root.ev_node;
                 f_start = root.ev_ts;
                 f_cycles = root.ev_dur;
                 f_root_subsys = root.ev_subsys;
                 f_root_op = root.ev_op;
                 f_path = decompose tree;
                 f_spans = tree_size tree;
               })

(* ---------- blame aggregation ---------- *)

type blame_row = {
  b_subsys : string;
  b_op : string;
  b_hops : int;
  b_cycles : int;
  b_node : int array; (* critical-path cycles per node index *)
}

let blame flows =
  let tbl : (string * string, blame_row) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun f ->
      List.iter
        (fun h ->
          let key = (h.h_subsys, h.h_op) in
          let row =
            match Hashtbl.find_opt tbl key with
            | Some r -> r
            | None ->
                let r =
                  {
                    b_subsys = h.h_subsys;
                    b_op = h.h_op;
                    b_hops = 0;
                    b_cycles = 0;
                    b_node = Array.make nnodes 0;
                  }
                in
                Hashtbl.add tbl key r;
                r
          in
          let row = { row with b_hops = row.b_hops + 1; b_cycles = row.b_cycles + h.h_cycles } in
          if h.h_node >= 0 && h.h_node < nnodes then
            row.b_node.(h.h_node) <- row.b_node.(h.h_node) + h.h_cycles;
          Hashtbl.replace tbl key row)
        f.f_path)
    flows;
  Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
  |> List.sort (fun a b ->
         match compare b.b_cycles a.b_cycles with
         | 0 -> compare (a.b_subsys, a.b_op) (b.b_subsys, b.b_op)
         | n -> n)

(* Blocked-on-remote recovered from assembled flows alone (offline trace
   files carry no live blocked table): critical-path cycles spent off the
   requester node, accounted to the requester and the flow's root
   subsystem. *)
let blocked_of_flows flows =
  let tbl : (string, int array) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let remote =
        List.fold_left
          (fun acc h -> if h.h_node <> f.f_node then acc + h.h_cycles else acc)
          0 f.f_path
      in
      if remote > 0 && f.f_node >= 0 && f.f_node < nnodes then begin
        let row =
          match Hashtbl.find_opt tbl f.f_root_subsys with
          | Some row -> row
          | None ->
              let row = Array.make nnodes 0 in
              Hashtbl.add tbl f.f_root_subsys row;
              row
        in
        row.(f.f_node) <- row.(f.f_node) + remote
      end)
    flows;
  Hashtbl.fold (fun subsys row acc -> (subsys, row) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let cross_node_flows flows =
  List.filter
    (fun f -> List.exists (fun h -> h.h_node <> f.f_node) f.f_path)
    flows

(* ---------- JSON ---------- *)

let node_name idx =
  if idx >= 0 && idx < nnodes then Node_id.to_string (Node_id.of_index idx)
  else string_of_int idx

let blame_json rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("subsys", Json.String r.b_subsys);
             ("op", Json.String r.b_op);
             ("hops", Json.Int r.b_hops);
             ("cycles", Json.Int r.b_cycles);
             ("x86_cycles", Json.Int r.b_node.(0));
             ("arm_cycles", Json.Int r.b_node.(1));
           ])
       rows)

(* ---------- tail-exemplar reservoir ---------- *)

module Reservoir = struct
  type nonrec t = {
    percentile : float;
    max_keep : int;
    mutable durations : int list; (* every offered flow's cycles *)
    mutable count : int;
    mutable pool : flow list; (* top [max_keep] by cycles, desc *)
  }

  let create ?(percentile = 0.99) ?(max_keep = 8) () =
    if not (percentile > 0.0 && percentile < 1.0) then
      invalid_arg "Reservoir.create: percentile must be in (0,1)";
    if max_keep <= 0 then invalid_arg "Reservoir.create: max_keep must be positive";
    { percentile; max_keep; durations = []; count = 0; pool = [] }

  (* Insert keeping descending cycles; earlier arrivals win ties so the
     kept set is independent of how the pool is later truncated. *)
  let rec insert f = function
    | [] -> [ f ]
    | g :: rest when g.f_cycles >= f.f_cycles -> g :: insert f rest
    | rest -> f :: rest

  let offer t f =
    t.count <- t.count + 1;
    t.durations <- f.f_cycles :: t.durations;
    t.pool <- insert f t.pool;
    if List.length t.pool > t.max_keep then
      t.pool <- List.filteri (fun i _ -> i < t.max_keep) t.pool

  let count t = t.count

  (* Threshold = smallest duration at or above the percentile rank over
     everything offered; exemplars = retained flows at or above it. The
     full-duration list is scalars only, so long campaigns stay bounded:
     complete traces exist only for the [max_keep] pool. *)
  let finalize t =
    if t.count = 0 then (0, [])
    else begin
      let sorted = List.sort compare t.durations in
      let n = List.length sorted in
      let rank = int_of_float (ceil (t.percentile *. float_of_int n)) - 1 in
      let rank = max 0 (min (n - 1) rank) in
      let threshold = List.nth sorted rank in
      (threshold, List.filter (fun f -> f.f_cycles >= threshold) t.pool)
    end
end

(* ---------- folded-stack flamegraph export ---------- *)

(* One line per distinct stack: "node;subsys.op;...;subsys.op self_cycles".
   Stacks come from per-node containment forests (each node is one clock
   domain, so containment is well-defined); self cycles are the span's
   duration minus the children tiled under it. Lines are aggregated and
   sorted, so same trace ⇒ byte-identical output. *)
let folded events =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let add stack cycles =
    if cycles > 0 then
      let n = match Hashtbl.find_opt tbl stack with Some n -> n | None -> 0 in
      Hashtbl.replace tbl stack (n + cycles)
  in
  let rec walk prefix t =
    let ev = t.t_ev in
    let stack = prefix ^ ";" ^ ev.ev_subsys ^ "." ^ ev.ev_op in
    let covered =
      List.fold_left (fun acc k -> acc + max 0 k.t_ev.ev_dur) 0 t.t_kids
    in
    add stack (ev.ev_dur - covered);
    List.iter (walk stack) (List.rev t.t_kids)
  in
  List.iteri
    (fun idx _node ->
      let evs =
        List.filter (fun (e : Trace.event) -> e.ev_node = idx && e.ev_dur >= 0) events
      in
      List.iter (walk (node_name idx)) (forest evs))
    Node_id.all;
  Hashtbl.fold (fun stack cycles acc -> (stack, cycles) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (stack, cycles) -> Printf.sprintf "%s %d\n" stack cycles)
  |> String.concat ""

(* ---------- offline event recovery ---------- *)

let node_index_of_name s =
  let rec go idx = function
    | [] -> None
    | n :: rest -> if String.equal (Node_id.to_string n) s then Some idx else go (idx + 1) rest
  in
  go 0 Node_id.all

let event_of_jsonl_obj json =
  let open Json in
  let int k = Option.bind (member k json) get_int in
  let str k = Option.bind (member k json) get_string in
  match (int "ts", int "dur", str "node", str "subsys", str "op") with
  | Some ts, Some dur, Some node, Some subsys, Some op ->
      let node_idx = match node_index_of_name node with Some i -> i | None -> -1 in
      Some
        {
          Trace.ev_ts = ts;
          ev_dur = dur;
          ev_node = node_idx;
          ev_subsys = subsys;
          ev_op = op;
          ev_depth = (match int "depth" with Some d -> d | None -> 0);
          ev_flow = (match int "flow" with Some f -> f | None -> 0);
          ev_tags = [];
        }
  | _ -> None

let events_of_chrome json =
  match Option.bind (Json.member "traceEvents" json) Json.get_list with
  | None -> Error "chrome trace: missing traceEvents list"
  | Some evs ->
      Ok
        (List.filter_map
           (fun ev ->
             let int k = Option.bind (Json.member k ev) Json.get_int in
             let str k = Option.bind (Json.member k ev) Json.get_string in
             match str "ph" with
             | Some ("X" | "i") -> (
                 match (str "cat", str "name", int "tid", int "ts") with
                 | Some cat, Some name, Some tid, Some ts ->
                     let prefix = cat ^ "." in
                     let op =
                       let pl = String.length prefix in
                       if
                         String.length name > pl
                         && String.equal (String.sub name 0 pl) prefix
                       then String.sub name pl (String.length name - pl)
                       else name
                     in
                     let arg k =
                       match Option.bind (Json.member "args" ev) (Json.member k) with
                       | Some j -> ( match Json.get_int j with Some f -> f | None -> 0)
                       | None -> 0
                     in
                     Some
                       {
                         Trace.ev_ts = ts;
                         ev_dur = (match int "dur" with Some d -> d | None -> -1);
                         ev_node = tid;
                         ev_subsys = cat;
                         ev_op = op;
                         ev_depth = arg "depth";
                         ev_flow = arg "flow";
                         ev_tags = [];
                       }
                 | _ -> None)
             | _ -> None)
           evs)

(* Accepts either sink format: a Chrome trace-event file (one JSON object
   with [traceEvents]) or JSONL (one event object per line). *)
let events_of_string contents =
  let trimmed = String.trim contents in
  if trimmed = "" then Error "empty trace"
  else if trimmed.[0] = '{' && not (String.contains trimmed '\n') then
    match Json.parse trimmed with
    | Error e -> Error e
    | Ok json -> (
        match events_of_chrome json with
        | Ok evs -> Ok evs
        | Error _ -> (
            (* A single-line JSONL file is also one object: fall through. *)
            match event_of_jsonl_obj json with
            | Some ev -> Ok [ ev ]
            | None -> Error "unrecognized trace object"))
  else if trimmed.[0] = '{' && String.length trimmed > 1 then
    (* Multi-line: Chrome export is one compact line in our sink, but be
       liberal — try whole-string JSON first, then line-by-line JSONL. *)
    match Json.parse trimmed with
    | Ok json -> events_of_chrome json
    | Error _ ->
        let lines = String.split_on_char '\n' trimmed in
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | line :: rest ->
              let line = String.trim line in
              if line = "" then go acc rest
              else (
                match Json.parse line with
                | Error e -> Error (Printf.sprintf "bad JSONL line: %s" e)
                | Ok json -> (
                    match event_of_jsonl_obj json with
                    | Some ev -> go (ev :: acc) rest
                    | None -> Error "JSONL line is not a trace event"))
        in
        go [] lines
  else Error "unrecognized trace format"
