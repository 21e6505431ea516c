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

(** {2 One probe per operation}

    Both nodes' states of a line travel together as one packed int, 0
    when the line is untracked (both [I]). *)

val packed : t -> line:int -> int
(** Both nodes' states of [line], read in one probe. *)

val state_in : int -> Stramash_sim.Node_id.t -> Mesi.state
(** One node's state in a packed value. *)

val pack : Stramash_sim.Node_id.t -> Mesi.state -> other:Mesi.state -> int
(** [pack node state ~other] is the packed value in which [node] holds
    [state] and the other node holds [other]. *)

val set_packed : t -> line:int -> int -> unit
(** Write both nodes' states of [line] in one probe; 0 stops tracking it. *)

val take : t -> Stramash_sim.Node_id.t -> line:int -> Mesi.state
(** Set [node]'s state of [line] to [I] and return the state it had, in
    one probe. *)

val tracked_lines : t -> int

val capacity : t -> int
(** Slots in the backing table; grows only while more lines are tracked
    at once than ever before. *)

val iter_lines : t -> f:(int -> unit) -> unit
(** Visit every line with a non-[I] state on some node. *)
