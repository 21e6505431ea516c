(** Open-loop serving campaign: the Stramash serving scenario measured
    with per-request tail-latency SLOs under every composition PRs 4–9
    added — chaos kill/restart, gray slow-down windows, corruption
    scrubbing, and the adaptive placement engine — each reported as a
    p99 delta against the fault-free Stramash baseline. Output is a pure
    function of (seed, keys, theta, rate, requests, payload, cache mode,
    composition toggles). *)

val chaos_inject :
  seed:int64 -> span:int -> Stramash_fault_inject.Plan.config
(** The chaos composition's kill/restart schedule: one downtime window
    per island at seeded jitter around 1/3 and 2/3 of the expected run
    span, both with restarts (serve rejects restart-less kills). *)

val campaign :
  Format.formatter ->
  ?seed:int64 ->
  ?keys:int ->
  ?theta:float ->
  ?rate:float ->
  ?requests:int ->
  ?payload:int ->
  ?cache_mode:Stramash_cache.Cache_sim.mode ->
  ?placement:bool ->
  ?chaos:bool ->
  ?gray:bool ->
  ?scrub:bool ->
  ?factor:float ->
  ?on_metrics:(label:string -> Stramash_sim.Metrics.registry -> unit) ->
  unit ->
  Campaign.verdict
(** Run the cell matrix — popcorn-shm and stramash baselines, then the
    enabled compositions (placement / chaos / gray / scrub, all on by
    default) — printing each cell's per-op latency table, SLO verdict
    and p99 delta vs the Stramash baseline, then replay the baseline and
    the chaos cell from the same seed and compare byte-for-byte. Ends
    with a ["campaign verdict: ..."] line for CI grep. [Clean] requires
    every cell to complete, the Stramash baseline (and placement cell,
    when enabled) to meet the SLO, and both the baseline and the
    chaos-composed cell to replay byte-identically from the same seed.
    [on_metrics] receives each cell's [serve.*] registry, labelled
    ["serve_"] ^ cell name. *)

val serve : Format.formatter -> unit
(** The ["serve"] experiments-registry entry: one reduced-size campaign. *)
