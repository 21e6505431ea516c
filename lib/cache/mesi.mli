(** MESI coherence states and the two-node transition rules used by both
    cache models (pure functions; {!Cache_sim} keeps each node's states
    beside the tags of its coherence point). *)

type state = I | S | E | M

val to_char : state -> char
val equal : state -> state -> bool

type snoop = No_snoop | Snoop_data | Snoop_invalidate
(** Coherence action a requester must perform against the other node,
    per the paper's CXL model (§7.3). *)

val on_read : other:state -> state * state * snoop
(** [on_read ~other] is [(requester', other', snoop)] for a read miss /
    fill at the requester when the other node's state is [other]. *)

val on_write : other:state -> state * state * snoop
(** Same for a write (read-for-ownership). *)

val on_upgrade : other:state -> state * state * snoop
(** A write that hits a line the requester holds in [S]. *)
