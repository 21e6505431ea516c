(** Node-failure chaos campaign: crash-stop kills and restarts injected
    into a live NPB run, with invariant audits after every recovery and a
    survivor-fingerprint check against a fault-free baseline. Output is a
    pure function of (seed, bench, kills, downtime, cache mode). *)

val default_downtime : int
(** Cycles a killed node stays down before its scheduled restart
    (clamped against the kill gap so events on a node never overlap). *)

val campaign :
  Format.formatter ->
  ?seed:int64 ->
  ?bench:string ->
  ?kills:int ->
  ?downtime:int ->
  ?cache_mode:Stramash_cache.Cache_sim.mode ->
  ?placement:Stramash_placement.Policy.t ->
  ?on_metrics:(label:string -> Stramash_sim.Metrics.registry -> unit) ->
  unit ->
  Campaign.verdict
(** Fingerprint the bench fault-free, then replay it under [kills]
    alternating-node kill/restart cycles spread over the baseline wall
    with seeded jitter. [placement] attaches a page-placement engine
    with that policy to both the baseline and the chaos machine, so
    degraded replica collapses and restart-time reconciles run under
    the same audits. Prints the schedule, per-recovery audits, the
    fault plan's chaos counters, per-node downtime, and a final
    ["campaign verdict: ..."] line for CI grep. [Clean] requires every
    kill recovered (a kill the run ends before is not), clean audits and
    a matching checksum; a schedule
    that fails {!Stramash_fault_inject.Plan.validate} is
    [Unknown_bench]. [on_metrics] receives the chaos run's fault-plan
    registry (label ["fault_plan"]) once the run settles. *)

val chaos : Format.formatter -> unit
(** The ["chaos"] experiment: one campaign with the default schedule. *)
