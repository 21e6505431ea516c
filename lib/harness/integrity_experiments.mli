(** Scrub campaign: seeded silent-data-corruption injection (page bit
    flips, message corruption/truncation, stale PTE installs, torn
    checkpoints), end-to-end detection (background scrubber, per-message
    CRC framing, verify-after-install, versioned checkpoint decode), and
    replica-backed repair, run against a live NPB workload with the
    static-shm placement engine attached. Output is a pure function of
    (seed, bench, knobs, cache mode). *)

val default_flips : int
val default_msg_rate : float
val default_pte_rate : float

val probe_config :
  flips:int -> msg_rate:float -> pte_rate:float -> Stramash_fault_inject.Plan.config
(** The campaign's config shape with placeholder flip events carrying the
    user's knobs — what the CLI feeds {!Plan.validate} before committing
    to the run. *)

val campaign :
  Format.formatter ->
  ?seed:int64 ->
  ?bench:string ->
  ?flips:int ->
  ?msg_rate:float ->
  ?pte_rate:float ->
  ?kills:int ->
  ?cache_mode:Stramash_cache.Cache_sim.mode ->
  ?on_metrics:(label:string -> Stramash_sim.Metrics.registry -> unit) ->
  unit ->
  Campaign.verdict
(** Fingerprint the bench corruption-free, then replay it under a seeded
    corruption schedule anchored to the first far-node landing, with the
    scrubber armed. [kills] > 0 folds a kill/restart schedule into the
    same plan with every death's checkpoint torn, proving the v2 header
    rejection and the shadow fallback. Prints the schedule, audits, the
    fault-plan report, detection/repair/exposure counters, and a final
    ["campaign verdict: ..."] line for CI grep. [Clean] requires every
    injected corruption detected, nothing unrepaired, at least 90% healed
    without the checkpoint fallback, all audits (including the
    post-sweep fingerprint proof) clean, and every scheduled kill
    recovered; a plan that fails {!Stramash_fault_inject.Plan.validate}
    (kills too dense for the bench) is [Unknown_bench]. [on_metrics]
    receives the run's registry (label
    ["scrub"]) for [--metrics-json]. *)

val scrub : Format.formatter -> unit
(** The ["scrub"] experiment: one campaign with the default schedule. *)
