(** Shared scaffolding for the NPB-like workloads (paper §8.3).

    All kernels follow the paper's offloading pattern: each processing
    procedure is bracketed by a migration to the Arm island and a
    back-migration to the x86 origin (§9.2, "a migration and
    back-migration for each processing procedure"). Class sizes are scaled
    by 16x relative to the paper's runs, together with the cache geometry
    (DESIGN.md §8). *)

val round_trip_targets : rounds:int -> (int * Stramash_sim.Node_id.t) list
(** Migration plan: point [2k] moves to Arm, point [2k+1] back to x86,
    for [k < rounds]. *)

val with_round : Stramash_isa.Builder.t -> round:int -> (unit -> unit) -> unit
(** Emit [Migrate_point (2*round)]; body; [Migrate_point (2*round+1)]. *)

val checksum_segment : Stramash_machine.Spec.segment
val checksum_vaddr : int

val random_keys : seed:int64 -> n:int -> max_key:int -> int64 array
val random_f64s : seed:int64 -> n:int -> float array

val csr_matrix :
  seed:int64 ->
  n:int ->
  row_nnz:int ->
  int64 array * int64 array * float array
(** [(rowptr[n+1], colidx[nnz], vals[nnz])] for a random sparse matrix
    with exactly [row_nnz] entries per row (duplicates allowed). *)
