(* Chaos campaign: crash-stop node failures under a live NPB workload.

   The campaign first runs the workload fault-free to fingerprint it
   (wall cycles + the NPB checksum word), then replays it under a seeded
   kill/restart schedule spread across that baseline wall, auditing the
   kernel invariants after every recovery and comparing the surviving
   result's checksum against the no-fault fingerprint. Output is a pure
   function of (seed, bench, kills, downtime, cache mode): the schedule's
   jitter comes from an Rng split off the seed, so two runs with the same
   arguments are byte-identical. *)

module Node_id = Stramash_sim.Node_id
module Rng = Stramash_sim.Rng
module Cycles = Stramash_sim.Cycles
module Metrics = Stramash_sim.Metrics
module Cache_sim = Stramash_cache.Cache_sim
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Plan = Stramash_fault_inject.Plan
module Fault = Stramash_fault_inject.Fault
open Campaign

let default_downtime = Cycles.of_us 40.0

(* Alternating-node kills with seeded jitter; restarts come [downtime]
   later, clamped against the kill gap. When the baseline exposes a
   far-node landing, the first kill takes the origin down just after it —
   the survivor must then resolve its cold-page faults through the
   degraded message walk instead of the fused path; the remaining kills
   spread over the rest of the run. A schedule dense enough to kill one
   node while the other is still down fails {!Plan.validate}. *)
let schedule ~seed ~wall ~kills ~downtime ~origin ~anchor =
  let rng = Rng.create ~seed:(Int64.logxor seed 0x5C4A05C4A05L) in
  match anchor with
  | Some anchor when kills >= 1 && anchor < wall ->
      let spacing = max 4 ((wall - anchor) / kills) in
      let downtime = max 1 (min downtime (spacing / 2)) in
      ( List.init kills (fun i ->
            if i = 0 then
              {
                Plan.node = origin;
                kill_at = max 1 (anchor + Rng.int_in rng 500 2000);
                restart_after = Some downtime;
              }
            else
              let node = if i mod 2 = 1 then Node_id.other origin else origin in
              let jitter = Rng.int_in rng (-(spacing / 8)) (spacing / 8) in
              {
                Plan.node;
                kill_at = anchor + (spacing * i) + jitter;
                restart_after = Some downtime;
              }),
        downtime )
  | _ ->
      let gap = max 2 (wall / (kills + 1)) in
      let downtime = max 1 (min downtime (gap / 2)) in
      ( List.init kills (fun i ->
            let node = if i mod 2 = 0 then origin else Node_id.other origin in
            let jitter = Rng.int_in rng (-(gap / 8)) (gap / 8) in
            {
              Plan.node;
              kill_at = max 1 ((gap * (i + 1)) + jitter);
              restart_after = Some downtime;
            }),
        downtime )

let campaign fmt ?(seed = 0xC4A05L) ?(bench = "is") ?(kills = 3) ?(downtime = default_downtime)
    ?(cache_mode = Cache_sim.Fast) ?placement
    ?(on_metrics = fun ~label:_ (_ : Metrics.registry) -> ()) () =
  with_bench fmt ~campaign:"chaos" bench @@ fun spec ->
  let base = baseline ~seed ~cache_mode ?placement spec in
  let events, downtime =
    schedule ~seed ~wall:base.wall ~kills ~downtime ~origin:base.origin ~anchor:base.anchor
  in
  Format.fprintf fmt "chaos campaign: bench=%s seed=%Ld kills=%d downtime=%d cycles@." bench seed
    (List.length events) downtime;
  pp_baseline fmt base;
  let config = { Plan.default with Plan.node_events = events } in
  with_plan fmt config @@ fun () ->
  List.iter
    (fun (ev : Plan.node_event) ->
      Format.fprintf fmt "  schedule: kill %s at %d, restart +%d@."
        (Node_id.to_string ev.Plan.node) ev.Plan.kill_at
        (match ev.Plan.restart_after with Some d -> d | None -> -1))
    events;
  let machine = machine ~seed ~cache_mode ~inject:config ?placement () in
  let proc, thread = Machine.load machine spec in
  let plan = Option.get (Machine.inject_plan machine) in
  let recoveries = ref 0 in
  let dirty = ref 0 in
  let run () =
    let on_recovery = on_recovery fmt machine ~proc ~dirty ~recoveries in
    let result = Runner.run ~on_recovery machine proc thread spec in
    let chk = checksum machine ~proc in
    final_audits fmt machine ~proc ~dirty ();
    (result, chk)
  in
  match run () with
  | exception Fault.Error e ->
      Format.fprintf fmt "unrecovered failure: %s@." (Fault.to_string e);
      on_metrics ~label:"fault_plan" (Plan.metrics plan);
      Format.fprintf fmt "campaign verdict: %s@." (verdict_to_string Unrecovered);
      Unrecovered
  | result, chk ->
      Format.fprintf fmt
        "chaos run: wall=%d cycles, %d instructions, %d migrations, %d messages@."
        result.Runner.wall_cycles result.Runner.instructions result.Runner.migrations
        result.Runner.messages;
      List.iter
        (fun node ->
          Format.fprintf fmt "  %s downtime: %d cycles@." (Node_id.to_string node)
            result.Runner.ext.Runner.node_downtime.(Node_id.index node))
        Node_id.all;
      Plan.report fmt plan;
      let fingerprint_ok =
        report_checksum fmt ~label:"survivor" ~baseline:base.fingerprint chk
      in
      let reg = Plan.metrics plan in
      if
        not
          (Metrics.get reg "chaos.downtime_cycles" > 0
          && Metrics.get reg "chaos.degraded_cycles" > 0)
      then Format.fprintf fmt "warning: downtime/degraded counters did not advance@.";
      on_metrics ~label:"fault_plan" reg;
      let verdict =
        if !recoveries < List.length events then Unrecovered
        else if !dirty = 0 && fingerprint_ok then Clean
        else Violations
      in
      Format.fprintf fmt "campaign verdict: %s (%d recoveries, %d dirty audits)@."
        (verdict_to_string verdict) !recoveries !dirty;
      verdict

(* Experiments-registry entry: one campaign with the default schedule. *)
let chaos fmt = ignore (campaign fmt ())
