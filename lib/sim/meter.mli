(** Per-node cycle meters.

    Each simulated CPU complex accumulates cycles here: one base cycle per
    instruction plus every memory-system stall the cache simulator reports
    — the icount-with-feedback timing model of paper §7.3. *)

type t

val create : unit -> t
val add : t -> int -> unit
(** Inlined at the call site: the runner charges every instruction's
    base cycle through it. *)

val get : t -> int
val set : t -> int -> unit
val reset : t -> unit

val delta : t -> (unit -> unit) -> int
(** [delta t f] runs [f] and returns how many cycles it added to [t];
    used to bill a remote handler's duration to a waiting requester. *)
