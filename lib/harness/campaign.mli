(** Shared plumbing for the seeded campaigns ([faults], [chaos],
    [place], [gray], [scrub], [serve]): the verdict and its exit code,
    the campaign bench set, the fault-free baseline fingerprint, the
    Stramash invariant audits, and the domain-pool soak. A campaign
    module keeps only its schedule, its report lines and its verdict
    rule. *)

type verdict =
  | Clean  (** The campaign ran and every gate passed. *)
  | Violations  (** The campaign ran but an audit, fingerprint or gate failed. *)
  | Unrecovered  (** A typed fault escaped recovery, or a kill never recovered. *)
  | Unknown_bench  (** Unusable arguments — the campaign never ran. *)

val verdict_to_string : verdict -> string

val exit_code : verdict -> int
(** The CLI contract every campaign shares: [Clean] → 0,
    [Violations]/[Unrecovered] → 1, [Unknown_bench] → 2. *)

val benches : string list
(** Benchmarks the NPB campaigns accept (small problem sizes). *)

val spec_of_bench : string -> Stramash_machine.Spec.t option
(** Campaign-sized spec for a {!benches} entry; [None] otherwise. *)

val with_bench :
  Format.formatter -> campaign:string -> string -> (Stramash_machine.Spec.t -> verdict) -> verdict
(** [with_bench fmt ~campaign bench k] runs [k] on the bench's spec, or
    prints ["unknown benchmark ..."] and returns [Unknown_bench]. *)

val with_plan :
  Format.formatter -> Stramash_fault_inject.Plan.config -> (unit -> verdict) -> verdict
(** [with_plan fmt config k] runs [k] if [config] passes
    {!Stramash_fault_inject.Plan.validate}; otherwise it prints the
    message and an [UNKNOWN-BENCH] verdict line and returns
    [Unknown_bench]. For plans built from the baseline run, which the
    CLI cannot check before the campaign starts. *)

val attach :
  ?epoch:int ->
  policy:Stramash_placement.Policy.t ->
  Stramash_machine.Machine.t ->
  Stramash_placement.Engine.t
(** Create a placement engine on the machine's Stramash personality and
    attach it (must precede the first [load]). Raises [Invalid_argument]
    on any other personality. *)

val machine :
  seed:int64 ->
  cache_mode:Stramash_cache.Cache_sim.mode ->
  ?inject:Stramash_fault_inject.Plan.config ->
  ?placement:Stramash_placement.Policy.t ->
  unit ->
  Stramash_machine.Machine.t
(** A fused-kernel machine with the default hardware, an optional armed
    fault plan, and an optional placement engine attached. *)

val checksum :
  Stramash_machine.Machine.t -> proc:Stramash_kernel.Process.t -> int64 option
(** The NPB checksum word read through whichever kernel still maps it —
    the workload fingerprint campaigns compare against their baseline. *)

val report_checksum :
  Format.formatter -> label:string -> baseline:int64 option -> int64 option -> bool
(** Print ["<label> checksum: ... (matches|DIFFERS from baseline)"];
    [true] iff the checksum is mapped and equals the baseline's. *)

type baseline = {
  wall : int;  (** Fault-free wall cycles. *)
  fingerprint : int64 option;  (** Its {!checksum}. *)
  origin : Stramash_sim.Node_id.t;  (** The process's origin node. *)
  anchor : int option;
      (** First cycle at which the run lands the thread on a node other
          than its origin: where the chaos, gray and scrub schedules
          start. *)
}

val baseline :
  seed:int64 ->
  cache_mode:Stramash_cache.Cache_sim.mode ->
  ?placement:Stramash_placement.Policy.t ->
  Stramash_machine.Spec.t ->
  baseline
(** Run the spec fault-free on a {!machine} and fingerprint it. *)

val pp_baseline : Format.formatter -> baseline -> unit
(** The ["baseline: wall=... cycles, checksum=..."] line. *)

val audit :
  Format.formatter ->
  Stramash_machine.Machine.t ->
  proc:Stramash_kernel.Process.t ->
  dirty:int ref ->
  ?prefix:string ->
  ?extra:(string * bool) list ->
  string ->
  unit
(** The Stramash kernel invariant audit (page tables and frames, futex
    waiters and the downtime holding area, the hotplug ledger, PTL
    quiescence, plus [extra]), printed as ["audit[prefix:label]: ..."].
    A dirty report increments [dirty]. *)

val on_recovery :
  Format.formatter ->
  Stramash_machine.Machine.t ->
  proc:Stramash_kernel.Process.t ->
  dirty:int ref ->
  recoveries:int ref ->
  Stramash_sim.Node_id.t ->
  unit
(** The runner's [on_recovery] hook: count the recovery and audit it as
    ["recovery-N:node"]. *)

val final_audits :
  Format.formatter ->
  Stramash_machine.Machine.t ->
  proc:Stramash_kernel.Process.t ->
  dirty:int ref ->
  ?prefix:string ->
  ?extra:(string * bool) list ->
  unit ->
  unit
(** The ["final"] {!audit}, then exit the process and check that every
    frame it mapped was freed (["teardown"]). *)

val soak :
  Format.formatter ->
  header:string ->
  seed:int64 ->
  cells:int ->
  domains:int ->
  (Format.formatter -> int64 -> verdict) ->
  verdict * (int * int64 * verdict) list
(** [soak fmt ~header ~seed ~cells ~domains cell] prints [header], runs
    [cell] at seeds [seed + i] for [i < cells] across [domains] host
    domains via {!Stramash_sim.Domain_pool}, and prints each cell's
    private buffer in cell order, then the worst verdict. The output and
    the returned [(cell, seed, verdict)] list are byte-identical whatever
    [domains] is. The caller must not have a tracer installed when
    [domains > 1] (the tracer is process-global). *)
