(* Scrub campaign: silent data corruption injected into a live NPB run,
   detected end to end, and repaired from placement replicas.

   The campaign first runs the workload corruption-free with the adaptive
   placement engine attached to fingerprint it (wall + NPB checksum) and
   find the first far-node landing, then replays it under a seeded
   corruption schedule: bit flips against replicated page pairs spread
   over the run, low-rate CRC-detectable message corruption/truncation,
   stale-PTE installs on the remote-walker path, and — when kills are
   scheduled — a torn checkpoint at every node death. Detection is the
   background scrubber plus the per-message CRC framing and the
   verify-after-install read-back; repair is re-fetch from the clean twin
   (replica or owner), retransmission, reinstall, or the checkpoint
   shadow fallback. The verdict demands every injected corruption
   detected, none unrepaired, at least 90% healed without falling back
   to the checkpoint path, and clean audits including the fingerprint
   proof that memory matches its seals after the shutdown sweep. Output
   is a pure function of (seed, bench, knobs, cache mode). *)

module Node_id = Stramash_sim.Node_id
module Rng = Stramash_sim.Rng
module Cycles = Stramash_sim.Cycles
module Metrics = Stramash_sim.Metrics
module Cache_sim = Stramash_cache.Cache_sim
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Plan = Stramash_fault_inject.Plan
module Fault = Stramash_fault_inject.Fault
module Integrity = Stramash_fault_inject.Integrity
module Env = Stramash_kernel.Env
module Policy = Stramash_placement.Policy
open Campaign

let default_flips = 6
let default_msg_rate = 0.0005
let default_pte_rate = 0.002

(* Flips need replica pairs to land on, and pairs need the placement
   engine replicating remote-read pages. Static-shm replicates every
   cross-node read (adaptive only promotes read-hot pages, which leaves
   is/mg/ft with an empty roster), so every machine in this campaign
   runs with the shm policy attached. *)
let placement = Policy.Static_shm

(* Bit-flip schedule: spread over [start, wall) with seeded jitter,
   alternating the preferred owner node, 1-2 bits per strike. The start
   anchors just after the first far-node landing — the earliest moment
   replica pairs can exist; events that come due before a pair exists
   stay queued in the injector and land at the next eligible tick. *)
let schedule ~seed ~wall ~anchor ~flips =
  let rng = Rng.create ~seed:(Int64.logxor seed 0x5DC0FFEE5DCL) in
  let start =
    match anchor with
    | Some a when a < wall -> a + Rng.int_in rng 200 1200
    | _ -> (wall / 8) + Rng.int_in rng 0 1000
  in
  let start = max 1 start in
  let span = max flips (wall - start) in
  List.init flips (fun i ->
      {
        Plan.bf_at = start + (span * i / max 1 flips) + Rng.int_in rng 0 (max 1 (span / (4 * max 1 flips)));
        bf_node = i mod 2;
        bf_bits = 1 + Rng.int rng 2;
      })

(* Kill schedule for the soak composition: corruption and crash-stop
   chaos in one plan, every death's checkpoint torn so the v2 header
   rejects it and restart proves the shadow fallback. *)
let kill_schedule ~seed ~wall ~origin ~anchor ~kills =
  if kills <= 0 then []
  else
    let rng = Rng.create ~seed:(Int64.logxor seed 0x5C12B0BB5L) in
    let first = match anchor with Some a when a < wall -> a | _ -> wall / 4 in
    let gap = max 4 ((wall - first) / max 1 kills) in
    let downtime = max 1 (min Chaos_experiments.default_downtime (gap / 2)) in
    List.init kills (fun i ->
        let node = if i mod 2 = 0 then origin else Node_id.other origin in
        {
          Plan.node;
          kill_at = max 1 (first + (gap * i) + Rng.int_in rng 500 2000);
          restart_after = Some downtime;
        })

let scrub_config ~flips ~msg_rate ~pte_rate ~events =
  {
    Plan.default with
    Plan.corrupt_flips = flips;
    corrupt_msg_rate = msg_rate;
    corrupt_msg_truncate_rate = msg_rate /. 2.0;
    corrupt_pte_rate = pte_rate;
    corrupt_ckpt_rate = (if events = [] then 0.0 else 1.0);
    scrub_enabled = true;
    scrub_interval_cycles = Cycles.of_us 10.0;
    scrub_pages_per_epoch = 32;
    node_events = events;
  }

(* The config shape the CLI validates before committing to a run: the
   user's knobs in place, a placeholder flip carrying nothing exotic. *)
let probe_config ~flips ~msg_rate ~pte_rate =
  scrub_config
    ~flips:(List.init (max 1 flips) (fun i -> { Plan.bf_at = 1 + i; bf_node = 0; bf_bits = 1 }))
    ~msg_rate ~pte_rate ~events:[]

let campaign fmt ?(seed = 0x5DCL) ?(bench = "is") ?(flips = default_flips)
    ?(msg_rate = default_msg_rate) ?(pte_rate = default_pte_rate) ?(kills = 0)
    ?(cache_mode = Cache_sim.Fast) ?(on_metrics = fun ~label:_ (_ : Metrics.registry) -> ()) () =
  with_bench fmt ~campaign:"scrub" bench @@ fun spec ->
  (* --- corruption-free baseline: fingerprint + schedule anchor *)
  let base = baseline ~seed ~cache_mode ~placement spec in
  let wall = base.wall and anchor = base.anchor in
  let flip_events = schedule ~seed ~wall ~anchor ~flips in
  let kill_events = kill_schedule ~seed ~wall ~origin:base.origin ~anchor ~kills in
  let config = scrub_config ~flips:flip_events ~msg_rate ~pte_rate ~events:kill_events in
  Format.fprintf fmt
    "scrub campaign: bench=%s seed=%Ld flips=%d msg-rate=%.4f pte-rate=%.4f kills=%d@." bench seed
    flips msg_rate pte_rate (List.length kill_events);
  pp_baseline fmt base;
  with_plan fmt config @@ fun () ->
  List.iter
    (fun (bf : Plan.bit_flip) ->
      Format.fprintf fmt "  schedule: flip %d bit%s near node %d at %d@." bf.Plan.bf_bits
        (if bf.Plan.bf_bits = 1 then "" else "s")
        bf.Plan.bf_node bf.Plan.bf_at)
    flip_events;
  List.iter
    (fun (ev : Plan.node_event) ->
      Format.fprintf fmt "  schedule: kill %s at %d, restart +%d (checkpoint torn)@."
        (Node_id.to_string ev.Plan.node) ev.Plan.kill_at
        (match ev.Plan.restart_after with Some d -> d | None -> -1))
    kill_events;
  (* --- instrumented run *)
  let machine = machine ~seed ~cache_mode ~inject:config ~placement () in
  let proc, thread = Machine.load machine spec in
  let phys = (Machine.env machine).Env.phys in
  let plan = Option.get (Machine.inject_plan machine) in
  let store = Plan.integrity plan in
  let recoveries = ref 0 in
  let dirty = ref 0 in
  let run () =
    let on_recovery = on_recovery fmt machine ~proc ~dirty ~recoveries in
    let result = Runner.run ~on_recovery machine proc thread spec in
    (* shutdown sweep: every still-tracked frame verified, so nothing
       injected can be latent when the final audit proves memory *)
    Option.iter
      (fun st ->
        let s = Integrity.sweep_all st phys ~now:result.Runner.wall_cycles in
        Format.fprintf fmt "shutdown sweep: %d pages verified, %d repaired, %d unrepaired@."
          s.Integrity.ts_scanned
          (List.length s.Integrity.ts_repairs)
          s.Integrity.ts_unrepaired)
      store;
    let chk = checksum machine ~proc in
    (* the fingerprint proof runs only after the sweep — mid-run a flip
       may legitimately still be latent *)
    let extra =
      match store with
      | Some st -> [ ("integrity-fingerprints", Integrity.audit_clean st phys) ]
      | None -> []
    in
    final_audits fmt machine ~proc ~dirty ~extra ();
    (result, chk)
  in
  match run () with
  | exception Fault.Error e ->
      Format.fprintf fmt "unrecovered failure: %s@." (Fault.to_string e);
      on_metrics ~label:"scrub" (Plan.metrics plan);
      Format.fprintf fmt "campaign verdict: %s@." (verdict_to_string Unrecovered);
      Unrecovered
  | result, chk ->
      Format.fprintf fmt "scrub run: wall=%d cycles, %d instructions, %d migrations, %d messages@."
        result.Runner.wall_cycles result.Runner.instructions result.Runner.migrations
        result.Runner.messages;
      Plan.report fmt plan;
      let injected = Plan.corruption_injected plan in
      let detected = Plan.corruption_detected plan in
      let repaired = Plan.corruption_repaired plan in
      let fallbacks = Plan.corruption_fallbacks plan in
      let unrepaired = Plan.corruption_unrepaired plan in
      let reg = Plan.metrics plan in
      let outstanding, exposure =
        match store with
        | Some st -> (Integrity.flips_outstanding st, Integrity.max_exposure_cycles st)
        | None -> (0, 0)
      in
      Format.fprintf fmt
        "corruption: injected=%d detected=%d repaired=%d fallbacks=%d unrepaired=%d \
         never-landed=%d@."
        injected detected repaired fallbacks unrepaired outstanding;
      Format.fprintf fmt
        "exposure: max=%d cycles, total detection latency=%d cycles, %d pages scanned in %d \
         sweeps@."
        exposure
        (Metrics.get reg "corruption.detection_latency_cycles")
        (Metrics.get reg "scrub.pages_scanned")
        (Metrics.get reg "scrub.epochs");
      ignore (report_checksum fmt ~label:"survivor" ~baseline:base.fingerprint chk);
      on_metrics ~label:"scrub" reg;
      (* All injected corruption detected; everything healed without
         loss; of the corruptions a replica could heal (everything except
         torn checkpoints, whose only repair *is* the shadow fallback), at
         least 90% avoided the fallback; the audits (fingerprint proof
         included) stayed clean. The NPB checksum is reported above but
         not gated: a read landing inside a detection window may
         legitimately observe the corrupt value — that exposure is what
         the campaign measures. *)
      let verdict =
        if !recoveries < List.length kill_events then Unrecovered
        else if
          !dirty = 0 && injected > 0 && detected = injected && unrepaired = 0
          && repaired + fallbacks = detected
          && 10 * repaired >= 9 * (detected - fallbacks)
        then Clean
        else Violations
      in
      Format.fprintf fmt "campaign verdict: %s (%d dirty audits, %d/%d detected)@."
        (verdict_to_string verdict) !dirty detected injected;
      verdict

(* Experiments-registry entry: one campaign with the default schedule. *)
let scrub fmt = ignore (campaign fmt ())
