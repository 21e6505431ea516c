(** One set-associative cache level with exact LRU replacement.

    Lines are identified by their line number (physical address lsr 6);
    tags store the full line number, which wastes no simulated state and
    keeps lookups trivially correct. Each set keeps its valid ways on a
    recency list and its invalid ways in a bitmask, so a fill or a touch
    costs the same whatever the associativity. A fill takes the
    lowest-numbered invalid way, else the least recently used one. *)

type t

val create : Config.geometry -> t
(** Raises [Invalid_argument] unless the geometry's [ways] is a power of
    two no larger than 32. *)

val probe : t -> line:int -> bool
(** Lookup; on hit, makes the line the most recently used in its set. *)

val probe_way : t -> line:int -> int
(** [probe] that returns the hit's index into the tag store (for later
    {!touch_way} / {!tag_at} revalidation by the L0 line filter), or -1 on
    a miss. Touches LRU exactly as {!probe} does on a hit. *)

val tag_at : t -> int -> int
(** Tag currently stored at an index below {!capacity_lines} (for
    example, one returned by {!probe_way}); -1 when the way is invalid.
    The L0 filter compares this against its cached line to detect
    eviction/invalidation without any hook traffic. *)

val touch_way : t -> int -> unit
(** Make the way at a known index the most recently used — must only be
    used when [tag_at] equals the line being accessed, in which case it
    is exactly the touch that {!probe} would have performed. Unchecked:
    on any other index the replacement state is corrupted. *)

val find : t -> line:int -> int
(** The line's index into the tag store, or -1 when absent; touches no
    replacement state. *)

val contains : t -> line:int -> bool
(** Lookup without touching replacement state. *)

val insert : t -> line:int -> int option
(** Insert a line (must not already be present); returns the evicted line,
    if the chosen way held one. *)

val insert_evict : t -> line:int -> int
(** Allocation-free [insert] for the per-access fill path: returns the
    evicted line, or -1 when an invalid way absorbed the fill. Identical
    victim choice and LRU effects; skips [insert]'s absence assertion, so
    callers must only fill after a failed probe. *)

val last_fill : t -> int
(** The index the latest {!insert_evict} (or {!insert}) filled; a tag
    store owner keeps per-way data there. -1 before the first fill. *)

val invalidate : t -> line:int -> bool
(** Drop a line; returns whether it was present. *)

val invalidate_at : t -> int -> unit
(** Drop the line at a known index, which must hold a valid way (for
    example one {!find} returned). An index outside the tag store raises
    [Invalid_argument]; the index of an invalid way corrupts the
    replacement state, as with {!touch_way}. *)

val capacity_lines : t -> int
val occupied : t -> int
