(** Per-node TLB: direct-mapped translation cache over virtual page
    numbers, tagged with an address-space id (ASID = pid) so concurrent
    processes with overlapping virtual layouts do not alias. A hit costs
    nothing extra (folded into the access); a miss triggers a charged
    software walk in the node layer. Must be flushed on unmap and
    protection change. *)

type entry = { frame : int; writable : bool }
type t

val create : ?entries:int -> unit -> t
(** Default 64 entries. *)

val lookup : t -> asid:int -> vpage:int -> entry option
val insert : t -> asid:int -> vpage:int -> entry -> unit

val miss : int
(** -1: slot does not hold (asid, vpage); {!translate} counts a miss. *)

val not_writable : int
(** -2: entry present but read-only while [write] was requested;
    {!translate} counts a hit, exactly as {!lookup} followed by a
    writability check would. *)

val translate : t -> asid:int -> vpage:int -> write:bool -> int
(** Allocation-free per-access translation, inlined at the call site:
    one direct-mapped probe with the permission check folded in. Returns the frame ([>= 0]), {!miss},
    or {!not_writable}. Hit/miss counters advance identically to
    {!lookup} composed with the caller's writability match, which is
    what keeps fast-path runs bit-identical to the reference path. *)

val probe : t -> asid:int -> vpage:int -> write:bool -> int
(** What {!translate} returns, counting nothing. A caller that uses the
    frame of a hit must {!count_hit} once; on anything else it must fall
    back to {!translate}, which does the counting. *)

val count_hit : t -> unit
(** Count the hit that {!translate} would have counted for a {!probe}
    that returned a frame. *)

val flush_page : t -> vpage:int -> unit
(** Drop any entry for this virtual page, regardless of ASID (a
    conservative shootdown). *)

val shootdown : t -> vpage:int -> unit
(** A remotely-requested {!flush_page}: same invalidation, but counted in
    {!shootdowns} so cross-ISA invalidation traffic stays visible apart
    from the owner kernel's own flushes. *)

val flush_all : t -> unit
val hits : t -> int
val misses : t -> int

val shootdowns : t -> int
(** Number of {!shootdown} rounds this TLB has absorbed. *)
