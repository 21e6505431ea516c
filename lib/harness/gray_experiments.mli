(** Gray-failure campaign: seeded slow-down windows, link flaps and PTL
    stalls injected into a live NPB run, executed twice — circuit breaker
    off, then on — with per-operation latency percentiles comparing the
    two. Output is a pure function of (seed, bench, factor, cache mode). *)

val default_slow_factor : float

val probe_config : factor:float -> Stramash_fault_inject.Plan.config
(** The campaign's config shape with a placeholder one-cycle window
    carrying [factor] — what the CLI feeds {!Plan.validate} before
    committing to the (possibly minutes-long) run. *)

val campaign :
  Format.formatter ->
  ?seed:int64 ->
  ?bench:string ->
  ?factor:float ->
  ?cache_mode:Stramash_cache.Cache_sim.mode ->
  ?on_metrics:(label:string -> Stramash_sim.Metrics.registry -> unit) ->
  unit ->
  Campaign.verdict
(** Fingerprint the bench fault-free, then replay it twice under the
    same seeded gray schedule (slow window on the origin anchored to the
    first far-node landing, an overlapping PTL stall window, a link-flap
    burst leading in, low-rate duplication/reordering): once with health
    scoring disabled and once with the circuit breaker armed. Prints both
    runs' audits and fault-plan reports, a per-op p50/p95/p99 comparison
    table, and a final ["campaign verdict: ..."] line for CI grep.
    [Clean] requires both runs audited clean, both checksums matching
    the fault-free baseline, the breaker tripping and diverting at least
    one fault, and breaker-on p99 fault latency strictly below
    breaker-off.
    [on_metrics] receives each run's fault-plan registry (labels
    ["gray_off"] and ["gray_on"]) so the CLI can fold both into
    [--metrics-json] snapshots. *)

val gray : Format.formatter -> unit
(** The ["gray"] experiment: one A/B run with the default schedule. *)
