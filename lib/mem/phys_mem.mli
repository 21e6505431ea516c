(** Simulated physical memory: a sparse byte store over the 8 GB space.

    Backing pages materialise on first touch, so the full Fig.-4 layout can
    be addressed without reserving host memory. All multi-byte accesses are
    little-endian (both target ISAs are little-endian in the paper's
    prototype).

    This module is purely functional storage: it charges no simulated time.
    Timing comes from the cache simulator, which is consulted separately by
    whoever performs the access. [host_*] entry points exist for loading
    program images and initial data, mirroring how a real system's contents
    appear before measurement starts. *)

type t

val create : unit -> t

val read : t -> Addr.paddr -> width:int -> int64
(** [read t a ~width] with [width] in {1,2,4,8} bytes. Unwritten memory
    reads as zero. *)

val write : t -> Addr.paddr -> width:int -> int64 -> unit

val read_u8 : t -> Addr.paddr -> int
val write_u8 : t -> Addr.paddr -> int -> unit

val read_u64 : t -> Addr.paddr -> int64
val write_u64 : t -> Addr.paddr -> int64 -> unit
(** Width-specialised fast paths: one direct-mapped page-pointer probe and
    a bounds-checked [Bytes] access, no width dispatch, inlined at the
    call site. Semantically identical to [read]/[write] at the same
    width. *)

val read_f64 : t -> Addr.paddr -> float
val write_f64 : t -> Addr.paddr -> float -> unit

val copy_page : t -> src:Addr.paddr -> dst:Addr.paddr -> unit
(** Copy one 4 KiB page; both addresses must be page-aligned. *)

val zero_page : t -> Addr.paddr -> unit
(** Make the page at a page-aligned address read as zeros. A frame that
    was never touched already does, and stays unmaterialised. *)

val host_write_u64 : t -> Addr.paddr -> int64 -> unit
val host_write_f64 : t -> Addr.paddr -> float -> unit
(** Aliases of [write*] kept distinct in the API so call sites make clear
    no simulated cost is intended. *)

val touched_pages : t -> int
(** Number of materialised backing pages (footprint diagnostics). *)

val self_check : t -> (unit, string) result
(** Validate the page-pointer cache against the backing store: every
    cached slot must alias the stored page ([==]). Pages are never removed
    once materialised, so this can only fail if that invariant is broken;
    run by the [--paranoid] harness at quantum boundaries. *)
