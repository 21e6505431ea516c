open Stramash_sim

(* Per-peer gray-failure health tracker: EWMA service-ratio + failure-rate
   scoring, a Closed/Open/Half_open circuit breaker with probe-paced,
   hysteresis-gated re-admission, and jittered adaptive backoff.

   All state is deterministic: the only randomness is backoff jitter drawn
   from a private stream handed in at creation, and every decision is a
   pure function of the observation sequence. *)

type state = Closed | Open | Half_open

let state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type params = {
  alpha : float;  (* EWMA smoothing factor, (0, 1] *)
  trip_score : float;  (* breaker opens when score falls below this *)
  probe_interval : int;  (* cycles between half-open probes while tripped *)
  readmit_probes : int;  (* consecutive good probes before closing *)
  backoff_jitter : float;  (* +/- fraction applied to each backoff *)
  adaptive_timeout_mult : float;  (* timeout = mult * RTT EWMA *)
}

type peer = {
  node : Node_id.t;
  score_key : string;
  state_key : string;
  (* Observed/nominal service-time ratio: dimensionless, so message RTTs,
     IPI deliveries, remote walks and PTL acquires all feed one signal
     without unit mixing. Starts at the healthy fixpoint 1.0. *)
  mutable ratio_ewma : float;
  mutable fail_ewma : float;
  (* Absolute message-RTT EWMA (cycles); only message deliveries feed it,
     and it alone drives the adaptive loss-detection timeout. 0 = no
     samples yet. *)
  mutable msg_rtt_ewma : float;
  mutable state : state;
  mutable probe_successes : int;
  mutable last_probe_at : int;
}

type t = {
  params : params;
  rng : Rng.t;
  metrics : Metrics.registry;
  peers : peer array;
}

let mark op = Stramash_obs.Trace.instant ~subsys:"fault" ~op ()

let create ~rng ~metrics params =
  if params.alpha <= 0.0 || params.alpha > 1.0 then
    invalid_arg "Health: alpha must be in (0, 1]";
  let peers =
    Array.of_list
      (List.map
         (fun node ->
           let name = Node_id.to_string node in
           {
             node;
             score_key = Printf.sprintf "gray.%s.score_milli" name;
             state_key = Printf.sprintf "gray.%s.breaker_state" name;
             ratio_ewma = 1.0;
             fail_ewma = 0.0;
             msg_rtt_ewma = 0.0;
             state = Closed;
             probe_successes = 0;
             last_probe_at = 0;
           })
         Node_id.all)
  in
  { params; rng; metrics; peers }

let peer t node = t.peers.(Node_id.index node)

(* Health in [0, 1]: perfect service ratio with no failures scores 1.0;
   either a rising failure EWMA or service times inflating past nominal
   pulls it down multiplicatively. *)
let score_of p = (1.0 -. p.fail_ewma) *. (1.0 /. Float.max 1.0 p.ratio_ewma)

let score t ~peer:node = score_of (peer t node)
let breaker_state t ~peer:node = (peer t node).state

(* The re-admission bar sits strictly above the trip bar: a peer that has
   barely recovered to trip_score is not re-trusted (hysteresis). *)
let readmit_score t = Float.min 0.95 (t.params.trip_score +. 0.2)

let publish t p =
  Metrics.set t.metrics p.score_key (int_of_float (score_of p *. 1000.0));
  Metrics.set t.metrics p.state_key
    (match p.state with Closed -> 0 | Open -> 1 | Half_open -> 2)

let trip_if_unhealthy t p ~now =
  if p.state = Closed && score_of p < t.params.trip_score then begin
    p.state <- Open;
    p.probe_successes <- 0;
    (* First probe waits a full interval from the trip point. *)
    p.last_probe_at <- now;
    Metrics.incr t.metrics "gray.breaker_trips";
    mark "breaker_trip"
  end

let observe_ratio t p ~cycles ~nominal =
  let nominal = Float.max 1.0 (float_of_int nominal) in
  let ratio = float_of_int (max 0 cycles) /. nominal in
  let a = t.params.alpha in
  p.ratio_ewma <- ((1.0 -. a) *. p.ratio_ewma) +. (a *. ratio);
  p.fail_ewma <- (1.0 -. a) *. p.fail_ewma

let observe_service t ~peer:node ~cycles ~nominal ~now =
  let p = peer t node in
  observe_ratio t p ~cycles ~nominal;
  trip_if_unhealthy t p ~now;
  publish t p

let observe_msg_rtt t ~peer:node ~cycles ~nominal ~now =
  let p = peer t node in
  let a = t.params.alpha in
  let v = float_of_int (max 0 cycles) in
  p.msg_rtt_ewma <-
    (if p.msg_rtt_ewma <= 0.0 then v else ((1.0 -. a) *. p.msg_rtt_ewma) +. (a *. v));
  observe_ratio t p ~cycles ~nominal;
  trip_if_unhealthy t p ~now;
  publish t p

let observe_failure t ~peer:node ~now =
  let p = peer t node in
  let a = t.params.alpha in
  p.fail_ewma <- ((1.0 -. a) *. p.fail_ewma) +. a;
  Metrics.incr t.metrics "gray.observed_failures";
  trip_if_unhealthy t p ~now;
  publish t p

(* Routing decision for one fused-path operation against [peer]. Closed
   passes through; tripped peers divert to the degraded message-walk
   path, except for one paced probe per interval that exercises the fused
   path so recovery can be detected. *)
let route t ~peer:node ~now =
  let p = peer t node in
  match p.state with
  | Closed -> `Fused
  | Open | Half_open ->
      if now - p.last_probe_at >= t.params.probe_interval then begin
        p.last_probe_at <- now;
        Metrics.incr t.metrics "gray.breaker_probes";
        mark "breaker_probe";
        `Probe
      end
      else `Divert

(* Probe verdict: the probe's own observations have already updated the
   EWMAs, so re-admission is judged on the post-probe score against the
   raised hysteresis bar, and only [readmit_probes] consecutive passes
   close the breaker. *)
let probe_done t ~peer:node ~now:_ =
  let p = peer t node in
  if p.state <> Closed then begin
    if score_of p >= readmit_score t then begin
      p.probe_successes <- p.probe_successes + 1;
      if p.probe_successes >= t.params.readmit_probes then begin
        p.state <- Closed;
        p.probe_successes <- 0;
        Metrics.incr t.metrics "gray.breaker_readmissions";
        mark "breaker_readmit"
      end
      else p.state <- Half_open
    end
    else begin
      if p.state = Half_open then Metrics.incr t.metrics "gray.breaker_reopens";
      p.state <- Open;
      p.probe_successes <- 0
    end;
    publish t p
  end

(* Adaptive loss-detection timeout: a multiple of the observed message
   RTT, clamped to [floor, cap]; [default] (the old fixed timeout) until
   the first sample arrives. *)
let adaptive_timeout t ~peer:node ~floor ~cap ~default =
  let p = peer t node in
  if p.msg_rtt_ewma <= 0.0 then default
  else
    let v = int_of_float (t.params.adaptive_timeout_mult *. p.msg_rtt_ewma) in
    max floor (min cap v)

(* Jittered exponential backoff: adaptive timeout plus base * 2^attempt,
   spread by +/- backoff_jitter to decorrelate retry storms. Jitter draws
   come from health's private stream, so arming it never perturbs the
   fault-decision streams. *)
let backoff t ~peer:node ~attempt ~base ~floor ~cap ~default =
  let timeout = adaptive_timeout t ~peer:node ~floor ~cap ~default in
  let exp = if attempt >= 16 then 16 else attempt in
  let raw = timeout + (base * (1 lsl exp)) in
  let j = t.params.backoff_jitter in
  if j <= 0.0 then raw
  else
    let f = Rng.float t.rng (2.0 *. j) -. j in
    max 0 (raw + int_of_float (float_of_int raw *. f))

let report fmt t =
  Array.iter
    (fun p ->
      Format.fprintf fmt
        "  health[%s]: score=%.3f ratio=%.3f fail=%.3f rtt_ewma=%.0f breaker=%s@."
        (Node_id.to_string p.node) (score_of p) p.ratio_ewma p.fail_ewma
        p.msg_rtt_ewma (state_to_string p.state))
    t.peers
