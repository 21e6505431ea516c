(** Per-peer gray-failure health scoring and circuit breakers.

    Each peer carries an EWMA of its observed/nominal service-time ratio
    (dimensionless, so message RTTs, IPI deliveries, remote walks and PTL
    acquires feed one signal), an EWMA failure rate, and an absolute
    message-RTT EWMA that drives the adaptive loss-detection timeout.

    [score = (1 - fail_ewma) * 1 / max 1 ratio_ewma] lives in [0, 1]; a
    Closed breaker trips Open when the score falls below [trip_score].
    While tripped, {!route} diverts fused-path work to the degraded
    message-walk path, releasing one paced [`Probe] per
    [probe_interval]; {!probe_done} judges each probe against a raised
    hysteresis bar ([trip_score + 0.2]) and only [readmit_probes]
    consecutive passes re-close the breaker, so a recovering peer is
    never re-trusted on a single good sample.

    Deterministic: backoff jitter is the only random draw and comes from
    the private stream passed to {!create}. *)

type state = Closed | Open | Half_open

type params = {
  alpha : float;  (** EWMA smoothing factor, must lie in (0, 1] *)
  trip_score : float;
  probe_interval : int;
  readmit_probes : int;
  backoff_jitter : float;
  adaptive_timeout_mult : float;
}

type t

val create :
  rng:Stramash_sim.Rng.t -> metrics:Stramash_sim.Metrics.registry -> params -> t
(** Counters ("gray.*") land in [metrics].
    @raise Invalid_argument when [alpha] is outside (0, 1]. *)

val score : t -> peer:Stramash_sim.Node_id.t -> float
val breaker_state : t -> peer:Stramash_sim.Node_id.t -> state
val readmit_score : t -> float

val observe_msg_rtt :
  t -> peer:Stramash_sim.Node_id.t -> cycles:int -> nominal:int -> now:int -> unit
(** A completed message delivery: feeds both the absolute RTT EWMA and
    the service ratio, and decays the failure EWMA. *)

val observe_service :
  t -> peer:Stramash_sim.Node_id.t -> cycles:int -> nominal:int -> now:int -> unit
(** A completed non-message operation (IPI, remote walk, PTL acquire):
    feeds the service ratio only. *)

val observe_failure : t -> peer:Stramash_sim.Node_id.t -> now:int -> unit
(** A timeout/drop/retry against the peer. *)

val route : t -> peer:Stramash_sim.Node_id.t -> now:int -> [ `Fused | `Probe | `Divert ]

val probe_done : t -> peer:Stramash_sim.Node_id.t -> now:int -> unit
(** Judge the probe whose observations have already been recorded. *)

val adaptive_timeout :
  t -> peer:Stramash_sim.Node_id.t -> floor:int -> cap:int -> default:int -> int

val backoff :
  t ->
  peer:Stramash_sim.Node_id.t ->
  attempt:int ->
  base:int ->
  floor:int ->
  cap:int ->
  default:int ->
  int
(** Adaptive timeout plus jittered exponential backoff for attempt
    [attempt] (0-based). *)

val report : Format.formatter -> t -> unit
