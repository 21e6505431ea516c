(** The Stramash-QEMU cache plugin, reimplemented: a 3-level inclusive MESI
    hierarchy per node, with CXL snoop overheads between the two nodes and
    local/remote memory fill latencies from Table 2.

    Every simulated memory access flows through {!access}, which returns the
    cycle cost to feed back into the requesting node's icount — the exact
    feedback loop of paper §7.3 — or, for a repeat L1 hit that the L0
    filter can prove, through {!l0_commit}, which has the same effects.
    Statistics mirror the artifact's output (L1/L2/L3 hits and accesses,
    local / remote / remote-shared memory hits, write-backs). *)

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

(** {2 L0 line filter}

    Each node has an L0 filter per port (instruction, data) that
    remembers recently L1-hit lines and the L1 way each sits at. It
    answers a repeat access without the MESI walk when it can prove the
    reference answer: the L1 still holds the line at that way and, for a
    store, this node's state of the line is M. {!l0_way} is that check
    and {!l0_commit} applies a hit; the [Fast] branch of {!access} calls
    both, and a caller that has already translated an address (the
    runner's fused memory closures) may call them directly and skip
    {!access} on a hit. *)

type l0
(** One node's L0 filters and the counters an L0 hit bumps. *)

val l0 : t -> Stramash_sim.Node_id.t -> l0 option
(** [Some] only while the fast engine is authoritative for every access:
    mode is [Fast] and no probe is registered (a probe must observe
    every access, which only {!access} guarantees). Callers that keep
    the handle must re-request it at least every scheduling quantum so
    that mode flips and probe registrations take effect. *)

val l0_way : l0 -> kind -> line:int -> int
(** [l0_way l0 kind ~line]: the L1 way that holds line number [line]
    when the filter answers this access, else -1. Changes nothing; on -1
    the caller must call {!access}. *)

val l0_commit : l0 -> kind -> way:int -> unit
(** What {!access} does for the L1 hit that {!l0_way} just found at
    [way] for the same [kind] and line, at a cost of L1 latency: the L0,
    L1 and access counters advance and the way becomes the most recently
    used. Only valid right after that [l0_way]: any other way corrupts
    the counters and the replacement state. *)

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
    line is in L2, and every L2 line in the private L3. A data-port L0
    slot whose store-M bit is set, and whose line is still in the L1 at
    the cached way, must find the line in state [M] at the coherence
    point: an L0 store hit skips the E→M change, which costs no cycles,
    so the per-access latency check in [Paranoid] mode cannot see a
    stale bit. Used by the property tests and the runner's paranoid
    audits. *)
