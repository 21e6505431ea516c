(** Adaptive page-placement engine (hotness-driven replicate / migrate /
    remote).

    Samples per-page access telemetry from the memory pipeline into
    {!Hotness} aggregates, asks a {!Policy} for verdicts at
    scheduling-quantum epoch boundaries, and executes them through the
    kernel's own paths: replica frames come from
    [Stramash_fault.alloc_frame] (hotplug donation included), table
    rewrites go through charged [Env.pt_io] under the origin PTL, and
    every install/collapse pays a cross-ISA TLB-shootdown IPI round.
    Decisions are a pure function of the (seeded) simulation, so runs are
    deterministic and Paranoid-auditable. Supports the Stramash
    personality only. *)

type t

val create :
  ?epoch:int ->
  ?max_actions:int ->
  ?payback:int ->
  ?min_remote:int ->
  ?cooldown:int ->
  ?warmup:int ->
  policy:Policy.t ->
  Stramash_core.Stramash_os.t ->
  t
(** [epoch] is in scheduling quanta (default 4); [max_actions] caps
    replications+migrations per epoch tick (default 64); [payback] is
    the amortisation horizon in epochs; [min_remote] the remote-miss
    noise floor below which the adaptive policy never acts; [cooldown]
    the number of epochs a recently-written page stays barred from
    re-replication (default 8); [warmup] the epochs of observed page
    history the adaptive policy demands before acting (default 5). *)

val policy : t -> Policy.t
val epoch : t -> int

val install_write_hook : t -> unit
(** Register the replica-collapse trigger with the fault path. Called
    once by [Machine.attach_placement]. *)

val register_proc : t -> Stramash_kernel.Process.t -> unit
(** Called by [Machine.load] for every process the engine manages. *)

val sample :
  t -> pid:int -> node:Stramash_sim.Node_id.t -> vaddr:int -> write:bool -> latency:int -> unit
(** One user access observed by the pipeline. Free of simulated cost —
    classification reuses the latency the access already paid. *)

val tick : t -> now:int -> unit
(** Quantum-boundary hook: every [epoch] quanta (with both kernels
    alive), run the policy over the hotness table, execute up to
    [max_actions] verdicts, then decay the aggregates. *)

val reconcile : t -> node:Stramash_sim.Node_id.t -> unit
(** Restore [node]'s half of any replica collapsed in degraded mode while
    it was down; the runner calls this during restart, after the
    checkpoint restore and before any thread executes. *)

val drain : t -> proc:Stramash_kernel.Process.t -> unit
(** Collapse every replica the process holds so the exit sweep sees
    pre-placement mappings; called by [Machine.exit_process]. *)

val live_replicas : t -> int

val counters : t -> (string * int) list
(** The [placement.*] counter snapshot folded into metrics exports. *)
