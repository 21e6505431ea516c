(** Per-kernel physical frame allocator.

    Frames come from the regions a kernel instance currently owns: its boot
    memory plus any blocks later granted by the global allocator (paper
    §6.3). Regions can be retracted again (memory hot-remove) provided
    their frames are free — the hotplug module drives evacuation first. *)

type t

val create : name:string -> t
val add_region : t -> Stramash_mem.Layout.region -> unit

val remove_region : t -> Stramash_mem.Layout.region -> (unit, [ `Pages_in_use of int ]) result
(** Fails if any frame in the region is currently allocated. *)

val alloc : t -> int option
(** A free page-aligned physical address, or [None] when exhausted. *)

val alloc_exn : t -> int
val free : t -> int -> unit
(** Raises [Invalid_argument] on double free or foreign addresses. *)

val is_allocated : t -> int -> bool

(** [owns_address t a] is whether [a] lies in a live region of this
    allocator. *)
val owns_address : t -> int -> bool
val total_frames : t -> int
val used_frames : t -> int

val pressure : t -> float
(** used / total; drives the 70 % threshold of the global allocator. *)
