(** Memory-operation latencies (paper Table 2), in cycles.

    Each simulated node is parameterised by a reference core whose published
    cache/memory latencies drive the cache-plugin timing feedback. The
    paper's cross-ISA experiments use the Xeon Gold / ThunderX2 pair; the
    validation experiments also use the Cortex-A72 / E5-2620 (small) pair. *)

type core = Cortex_a72 | Thunderx2 | E5_2620 | Xeon_gold

type t = {
  l1 : int;
  l2 : int;
  l3 : int option; (* the Cortex-A72 reference has no L3 ("*" in Table 2) *)
  mem : int;
  remote_mem : int;
}

val of_core : core -> t
val core_name : core -> string
val all_cores : core list

val default_for_node : Stramash_sim.Node_id.t -> t
(** Big-pair defaults: x86 = Xeon Gold, Arm = ThunderX2 (§8.1). *)
