(* Gray-failure campaign: slow-but-alive nodes under a live NPB workload.

   Unlike the chaos campaign (crash-stop kills), nothing here ever dies:
   the origin node enters a seeded slow-down window (service-time
   inflation plus a PTL lock-holder stall), bracketed by a correlated
   link-flap burst and low-rate duplication/reordering. The campaign runs
   the same schedule twice — breaker-off (health scoring disabled) and
   breaker-on — and renders per-operation latency percentiles for both,
   so the circuit breaker's value shows up as a strictly lower p99 on the
   fault path. Output is a pure function of (seed, bench, factor, cache
   mode): schedule jitter comes from an Rng split off the seed, and each
   run's fault plan is deterministic, so two invocations with the same
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

let default_slow_factor = 3.0

(* The gray schedule, anchored like the chaos kill schedule: the slow
   window opens just after the baseline first lands the thread on the
   far node, when the origin is hottest as a remote-walk server. A short
   flap burst leads into the window (the classic gray-failure prodrome:
   the link degrades before the node does), and a PTL stall window
   co-occurs with the slow-down. *)
let schedule ~seed ~wall ~origin ~anchor ~factor =
  let rng = Rng.create ~seed:(Int64.logxor seed 0x64A7FA115EEDL) in
  let start =
    match anchor with
    | Some a when a < wall -> a + Rng.int_in rng 200 1200
    | _ -> (wall / 8) + Rng.int_in rng 0 1000
  in
  let start = max 1 start in
  let len = max (Cycles.of_us 20.0) ((wall - start) * 3 / 5) in
  let flap_len = max (Cycles.of_us 2.0) (min (len / 8) (Cycles.of_us 30.0)) in
  let slow = [ { Plan.g_node = origin; g_start = start; g_len = len; g_factor = factor } ] in
  let stalls =
    [ { Plan.st_start = start; st_len = len; st_stall_cycles = Cycles.of_us 25.0 } ]
  in
  let flaps =
    [
      {
        Plan.fl_start = max 1 (start - flap_len);
        fl_len = flap_len;
        fl_drop_rate = 0.3;
        fl_delay_cycles = Cycles.of_us 3.0;
      };
    ]
  in
  (slow, flaps, stalls, start, len)

let gray_config ~slow ~flaps ~stalls ~breaker =
  {
    Plan.default with
    Plan.gray_slow = slow;
    gray_flaps = flaps;
    gray_ptl_stalls = stalls;
    msg_dup_rate = 0.02;
    msg_reorder_rate = 0.05;
    msg_reorder_cycles = Cycles.of_us 1.0;
    health_enabled = breaker;
    (* Probes are full-price fused faults while the window lasts, so pace
       them well below 1% of the fault population or they drag the
       breaker-on tail back up to the stalled fused cost (the campaign
       windows run a few to ~15M cycles; 10ms = 21M cycles of pacing
       keeps in-window probes out of the p99). *)
    breaker_probe_interval = Cycles.of_us 10_000.0;
  }

(* The config shape the CLI validates before committing to a run: the
   campaign's constant knobs plus a placeholder window carrying the
   user's factor, so a bad --factor fails fast with a message. *)
let probe_config ~factor =
  gray_config
    ~slow:[ { Plan.g_node = Node_id.X86; g_start = 1; g_len = 1; g_factor = factor } ]
    ~flaps:[] ~stalls:[] ~breaker:true

type run_outcome = {
  r_checksum : int64 option;
  r_dirty : int;
  r_ops : (string * Metrics.Histogram.t) list;
  r_registry : Metrics.registry;
  r_error : string option;
}

(* One instrumented run under [config]: audits at the end and at
   teardown, per-op histograms and the plan registry captured before the
   machine is dropped. *)
let run_one fmt ~label ~seed ~cache_mode ~spec ~config =
  let machine = machine ~seed ~cache_mode ~inject:config () in
  let proc, thread = Machine.load machine spec in
  let plan = Option.get (Machine.inject_plan machine) in
  let dirty = ref 0 in
  match
    let result = Runner.run machine proc thread spec in
    let chk = checksum machine ~proc in
    final_audits fmt machine ~proc ~dirty ~prefix:label ();
    (result, chk)
  with
  | exception Fault.Error e ->
      Format.fprintf fmt "%s: unrecovered failure: %s@." label (Fault.to_string e);
      {
        r_checksum = None;
        r_dirty = !dirty;
        r_ops = Plan.op_histograms plan;
        r_registry = Plan.metrics plan;
        r_error = Some (Fault.to_string e);
      }
  | result, chk ->
      Format.fprintf fmt "%s: wall=%d cycles, %d instructions, %d migrations, %d messages@."
        label result.Runner.wall_cycles result.Runner.instructions result.Runner.migrations
        result.Runner.messages;
      Plan.report fmt plan;
      {
        r_checksum = chk;
        r_dirty = !dirty;
        r_ops = Plan.op_histograms plan;
        r_registry = Plan.metrics plan;
        r_error = None;
      }

let gray_get run name = Metrics.get run.r_registry name

let op_hist run op = List.assoc_opt op run.r_ops

let p99_of run op =
  match op_hist run op with
  | Some h when Metrics.Histogram.count h > 0 -> Some (Metrics.Histogram.p99 h)
  | _ -> None

let pp_op_row fmt name off on =
  let cell = function
    | Some h when Metrics.Histogram.count h > 0 ->
        Printf.sprintf "n=%-6d p50=%-8.0f p95=%-8.0f p99=%-8.0f" (Metrics.Histogram.count h)
          (Metrics.Histogram.p50 h) (Metrics.Histogram.p95 h) (Metrics.Histogram.p99 h)
    | _ -> "n=0"
  in
  Format.fprintf fmt "  %-12s off: %-44s on: %s@." name (cell off) (cell on)

let campaign fmt ?(seed = 0x64A7L) ?(bench = "is") ?(factor = default_slow_factor)
    ?(cache_mode = Cache_sim.Fast) ?(on_metrics = fun ~label:_ (_ : Metrics.registry) -> ()) ()
    =
  with_bench fmt ~campaign:"gray" bench @@ fun spec ->
  let base = baseline ~seed ~cache_mode spec in
  let slow, flaps, stalls, start, len =
    schedule ~seed ~wall:base.wall ~origin:base.origin ~anchor:base.anchor ~factor
  in
  Format.fprintf fmt "gray campaign: bench=%s seed=%Ld factor=%.1f@." bench seed factor;
  pp_baseline fmt base;
  Format.fprintf fmt "  schedule: slow %s [%d, %d) x%.1f; ptl stall +%d cycles; flap burst before@."
    (Node_id.to_string base.origin) start (start + len) factor (Cycles.of_us 25.0);
  (* --- same schedule, breaker off then on (machine seed identical, so
     the workload side of both runs draws the same streams) *)
  let off =
    run_one fmt ~label:"breaker-off" ~seed ~cache_mode ~spec
      ~config:(gray_config ~slow ~flaps ~stalls ~breaker:false)
  in
  let on =
    run_one fmt ~label:"breaker-on" ~seed ~cache_mode ~spec
      ~config:(gray_config ~slow ~flaps ~stalls ~breaker:true)
  in
  on_metrics ~label:"gray_off" off.r_registry;
  on_metrics ~label:"gray_on" on.r_registry;
  Format.fprintf fmt "per-op latency (cycles), breaker-off vs breaker-on:@.";
  List.iter (fun op -> pp_op_row fmt op (op_hist off op) (op_hist on op)) Plan.op_names;
  let trips = gray_get on "gray.breaker_trips" in
  let fallbacks = gray_get on "gray.breaker_fallbacks" in
  Format.fprintf fmt
    "breaker-on: %d trips, %d diverted faults, %d readmissions; breaker-off: %d trips@." trips
    fallbacks
    (gray_get on "gray.breaker_readmissions")
    (gray_get off "gray.breaker_trips");
  let p99_verdict =
    match (p99_of off "fault", p99_of on "fault") with
    | Some p_off, Some p_on ->
        Format.fprintf fmt "fault p99: off=%.0f on=%.0f (%s)@." p_off p_on
          (if p_on < p_off then "breaker wins" else "breaker LOSES");
        p_on < p_off
    | _ ->
        Format.fprintf fmt "fault p99: no samples in one of the runs@.";
        false
  in
  let off_ok = report_checksum fmt ~label:"breaker-off" ~baseline:base.fingerprint off.r_checksum in
  let on_ok = report_checksum fmt ~label:"breaker-on" ~baseline:base.fingerprint on.r_checksum in
  let verdict =
    if off.r_error <> None || on.r_error <> None then Unrecovered
    else if
      off.r_dirty = 0 && on.r_dirty = 0 && off_ok && on_ok && trips >= 1 && fallbacks >= 1
      && p99_verdict
    then Clean
    else Violations
  in
  Format.fprintf fmt "campaign verdict: %s (%d+%d dirty audits, %d trips)@."
    (verdict_to_string verdict) off.r_dirty on.r_dirty trips;
  verdict

(* Experiments-registry entry: one A/B run with the default schedule. *)
let gray fmt = ignore (campaign fmt ())
