(** Cache hierarchy configuration.

    The paper simulates 32 KB L1s, a private L2 and a 4 MB (or 32 MB for
    Fig. 10) L3 per QEMU instance. Our workloads are scaled down by 16x to
    keep interpreter-driven simulation fast, so the default geometry is
    scaled by the same factor and the harness reports both the scaled value
    and the paper-equivalent label (DESIGN.md §8). *)

type geometry = { size : int; ways : int }
(** Total bytes and associativity; 64 B lines throughout. *)

val sets : geometry -> int

type t = {
  l1i : geometry;
  l1d : geometry;
  l2 : geometry;
  l3 : geometry;
  shared_l3 : bool; (* Fully-shared hardware model: one L3 for both nodes *)
  hw_model : Stramash_mem.Layout.hw_model;
  x86_lat : Stramash_mem.Latency.t;
  arm_lat : Stramash_mem.Latency.t;
  cxl : Cxl.t;
}

val default : Stramash_mem.Layout.hw_model -> t
(** Scaled default: 8 KB L1s, 64 KB L2, 256 KB L3 (paper-equivalent 4 MB);
    [shared_l3] set for [Fully_shared]. *)

val with_l3_bytes : t -> int -> t
(** Fig. 10's cache-size sweep: replace the L3 capacity, in bytes. *)

val latencies : t -> Stramash_sim.Node_id.t -> Stramash_mem.Latency.t
