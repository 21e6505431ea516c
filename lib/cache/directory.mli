(** Cross-node coherence directory.

    Tracks, per cache line, the MESI state each node's private hierarchy
    holds the line in. This is the simulator's stand-in for the CXL 3.0
    inter-host MESI protocol state (paper §3, §7.3). *)

type t

val create : unit -> t
val get : t -> Stramash_sim.Node_id.t -> line:int -> Mesi.state
val set : t -> Stramash_sim.Node_id.t -> line:int -> Mesi.state -> unit
val holds : t -> Stramash_sim.Node_id.t -> line:int -> bool
(** State is not [I]. *)

val tracked_lines : t -> int

val capacity : t -> int
(** Slots in the backing table; grows only while more lines are tracked
    at once than ever before. *)

val iter_lines : t -> f:(int -> unit) -> unit
(** Visit every line with a non-[I] state on some node. *)
