(** The Stramash-QEMU cache plugin, reimplemented: a 3-level inclusive MESI
    hierarchy per node, with CXL snoop overheads between the two nodes and
    local/remote memory fill latencies from Table 2.

    Every simulated memory access flows through {!access}, which returns the
    cycle cost to feed back into the requesting node's icount — the exact
    feedback loop of paper §7.3. Statistics mirror the artifact's output
    (L1/L2/L3 hits and accesses, local / remote / remote-shared memory
    hits, write-backs). *)

type t

type kind = Ifetch | Load | Store

type mode =
  | Fast
      (** The L0 line filter answers repeat L1 hits without the MESI
          walk; bit- and cycle-identical to [Reference]. *)
  | Reference
      (** Every access takes the full walk, with no L0 filter, for
          baselines and cross-checks. *)
  | Paranoid
      (** The L0 filter predicts, the reference path executes, and any
          disagreement raises {!Divergence} at the first divergent access. *)

exception Divergence of string
(** Raised in [Paranoid] mode when the fast path would have produced a
    different latency than the reference path. The runner's paranoid
    audits also raise it when {!check_consistency} fails. *)

val create : Config.t -> t
val config : t -> Config.t

val set_mode : t -> mode -> unit
(** Default is [Fast]. Safe to flip mid-run: the L0 filter revalidates
    presence against the L1 tag store on every hit and its store-M bits
    are maintained in every mode, so no flush protocol is needed. *)

val mode : t -> mode

val access : t -> node:Stramash_sim.Node_id.t -> kind -> paddr:int -> int
(** Simulate one access to the line holding [paddr]; returns its latency
    in cycles. *)

val access_bytes : t -> node:Stramash_sim.Node_id.t -> kind -> paddr:int -> len:int -> int
(** Access every cache line spanned by [[paddr, paddr+len)]; the cost of a
    bulk copy such as a message payload or a page replication. *)

val latency_class :
  t -> node:Stramash_sim.Node_id.t -> int -> [ `Cache | `Local_mem | `Remote_mem ]
(** Classify an observed access latency against the node's Table-2
    thresholds: below DRAM latency it hit in some cache, at or above the
    remote-memory latency it crossed the interconnect. Used by the
    placement sampler to count remote misses without probing the tag
    stores a second time. *)

val atomic_rmw : t -> node:Stramash_sim.Node_id.t -> paddr:int -> int
(** An atomic read-modify-write (CAS / LSE, §6.5): a store-class access
    plus the configured atomic overhead. *)

val stats : t -> Stramash_sim.Metrics.registry
val stat : t -> Stramash_sim.Node_id.t -> string -> int
(** Per-node counter, e.g. [stat t X86 "l1d_hits"]. *)

val hit_rate : t -> Stramash_sim.Node_id.t -> string -> float
(** [hit_rate t node "l1d"] from the hit/access counters; 0 if unused. *)

(** {2 Fused-path raw window}

    [fast_path] hands the runner the exact arrays the Fast engine's own
    L0 hit path reads, so the whole per-instruction chain (TLB probe,
    L0/L1 replay, meter charge, physical access) can be fused into one
    closure with no cross-module calls. All fields alias live storage;
    the only permitted mutations are the ones {!access} itself would have
    performed for the same L0 hit — the counter increments on [fp_stats]
    and {!Level.touch_way} on the matching L1 — and only after {e every}
    hit condition ([Level.tag_at] included) has been re-proved against
    the live arrays. Any condition failing means no mutation at all and
    a fall back to {!access}. *)

type node_stats = {
  mutable l1i_hits : int;
  mutable l1i_accesses : int;
  mutable l1d_hits : int;
  mutable l1d_accesses : int;
  mutable l2_hits : int;
  mutable l2_accesses : int;
  mutable l3_hits : int;
  mutable l3_accesses : int;
  mutable local_mem_hits : int;
  mutable remote_mem_hits : int;
  mutable remote_shared_mem_hits : int;
  mutable writebacks : int;
  mutable back_invalidations : int;
  mutable snoop_data : int;
  mutable snoop_invalidates : int;
  mutable mem_accesses : int;
  mutable l0_hits : int;
  mutable l0_misses : int;
}
(** One node's counters (the record behind {!stat}). Exposed concretely
    only for the fused path; an L0 ifetch hit bumps [l0_hits],
    [l1i_accesses], [mem_accesses], [l1i_hits]; a data hit bumps
    [l0_hits], [l1d_accesses], [mem_accesses], [l1d_hits]. Nothing else
    may be touched from outside this module. *)

type fast_path = {
  fp_stats : node_stats;
  fp_lat_l1 : int;  (** the latency an L0 hit returns *)
  fp_slot_mask : int;  (** L0 slot = line land [fp_slot_mask] *)
  fp_i_lines : int array;  (** ifetch-port L0: cached lines, -1 empty *)
  fp_i_ways : int array;  (** ifetch-port L0: way into the L1I tag store *)
  fp_l1i : Level.t;  (** the L1I ([Level.tag_at] hit proof + [Level.touch_way]) *)
  fp_d_lines : int array;
  fp_d_ways : int array;
  fp_d_store_m : bool array;  (** data-port L0: this node's state known M *)
  fp_l1d : Level.t;
}

val fast_path : t -> node:Stramash_sim.Node_id.t -> fast_path option
(** [Some] only while the fast engine is authoritative for every access:
    mode is [Fast] and no probes are registered. Callers must re-request
    it at least every scheduling quantum so mode flips and probe
    registrations take effect. *)

val add_probe : t -> (Stramash_sim.Node_id.t -> kind -> int -> unit) -> unit
(** Append an observation hook fired on every {!access}; hooks chain in
    registration order so the Fig. 8 trace recorder and the obs layer can
    observe the same run. *)

val set_probe : t -> (Stramash_sim.Node_id.t -> kind -> int -> unit) option -> unit
(** [set_probe t None] removes every probe; [set_probe t (Some f)] resets
    the chain to [f] alone (the historical single-observer behaviour). *)

val add_writeback_hook : t -> (Stramash_sim.Node_id.t -> line:int -> unit) -> unit
(** Append a hook fired whenever a dirty line is written back from a
    node's coherence point. Popcorn's DSM registers here: a write-back to
    a replicated page triggers the software consistency policy (paper
    §9.2.2). Hooks must not recurse into the cache simulator. *)

val set_writeback_hook : t -> (Stramash_sim.Node_id.t -> line:int -> unit) option -> unit
(** Clear ([None]) or reset ([Some f]) the write-back hook chain, as with
    {!set_probe}. *)

val check_consistency : t -> (unit, string) result
(** Validate the model's structural invariants. Each node keeps its MESI
    state per way of its coherence point (the private L3, or the L2 when
    the L3 is shared): every valid way there must hold a non-[I] state
    and every invalid way [I]. No line may be writable ([E]/[M]) on both
    nodes at once. The hierarchy must be inclusive: every resident L1
    line is in L2, and every L2 line in the private L3. Used by the
    property tests and the runner's paranoid audits. *)
