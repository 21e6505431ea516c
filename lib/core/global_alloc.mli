(** Global physical-memory allocator over the shared pool (paper §6.3).

    Pool memory is split into fixed-size blocks (32 MB-4 GB in the paper;
    scaled here with everything else). Each kernel boots with a minimal
    set of blocks; when a kernel's memory pressure passes 70 % it requests
    another block, which is onlined into its frame allocator via the
    hotplug path. If no block is free, the allocator evicts one from the
    other kernel (offline there, online here) until pressures balance. *)

type t

val create :
  Stramash_kernel.Env.t ->
  ?block_size:int ->
  rng:Stramash_sim.Rng.t ->
  unit ->
  t
(** Default block size: 16 MB (paper-equivalent 256 MB at the 16x scale). *)

val block_size : t -> int
val free_blocks : t -> int
val blocks_owned : t -> Stramash_sim.Node_id.t -> int

val request_block : t -> Stramash_sim.Node_id.t -> (Stramash_mem.Layout.region, [ `Exhausted ]) result
(** Grant one block to [node], charging the hotplug online cost to its
    meter; evicts from the other kernel when the pool is empty and the
    other kernel holds a free-enough block. *)

val release_block : t -> Stramash_sim.Node_id.t -> Stramash_mem.Layout.region -> (unit, [ `Pages_in_use of int ]) result

val check_pressure : t -> Stramash_sim.Node_id.t -> bool
(** Apply the 70 % policy: request a block if this kernel's pressure
    exceeds the threshold. Returns whether a block was granted. *)

(** {2 Crash-stop handling} *)

val on_node_death :
  t -> node:Stramash_sim.Node_id.t -> actor:Stramash_sim.Node_id.t -> int * int
(** Sweep the dead [node]'s donated blocks: fully-free blocks go back to
    the pool, blocks with pages still in use are marked orphaned (pinned
    until the owner restarts). The hotplug sweep cost is billed to the
    surviving [actor]. Returns [(reclaimed, orphaned)]. *)

val on_node_restart : t -> node:Stramash_sim.Node_id.t -> int
(** Re-adopt [node]'s orphaned blocks; returns how many. *)

val ledger : t -> (Stramash_sim.Node_id.t * Stramash_mem.Layout.region * bool) list
(** Deterministic [(owner, region, orphaned)] dump, sorted by region base
    — the view the audit's hotplug-consistency check consumes. *)
