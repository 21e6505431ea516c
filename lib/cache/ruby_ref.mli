(** Independent reference cache model, standing in for gem5's Ruby "MESI
    Three Level" protocol (paper §9.1.3 / Fig. 8).

    Deliberately implemented differently from {!Cache_sim} — tree-PLRU
    replacement (as Ruby's caches use) instead of exact LRU, a strictly
    inclusive fill path, an owner-bitmask coherence filter instead of
    per-way MESI states, and no timing — so that comparing per-level hit rates
    between the two models is a meaningful cross-validation, as the
    paper's comparison against gem5 is. *)

type t

val create : Config.t -> t

val access : t -> node:Stramash_sim.Node_id.t -> Cache_sim.kind -> paddr:int -> unit

val hit_rate : t -> Stramash_sim.Node_id.t -> string -> float
(** ["l1i" | "l1d" | "l2" | "l3"], as in {!Cache_sim.hit_rate}. *)

val stats : t -> Stramash_sim.Metrics.registry
