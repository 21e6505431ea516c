(** Kernel-heap address assignment.

    Kernel objects that other kernels may touch remotely (VMA structs,
    lock words, futex buckets, message headers) are given real physical
    addresses inside the owning kernel's memory, so that remote accessor
    functions incur honest cache/memory costs. A bump allocator over
    frames from the kernel's frame allocator is all that is needed — these
    objects are never freed individually in our runs. *)

type t

val create : alloc_frame:(unit -> int) -> t
val alloc : t -> bytes:int -> int
(** Line-aligned when [bytes >= 64]; 8-byte aligned otherwise. *)

val alloc_line : t -> int
(** A dedicated cache line (lock words, counters). *)
