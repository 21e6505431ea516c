(** Fused kernel virtual address space (paper §6.4).

    Stramash-Linux aligns the kernel virtual ranges of the two instances —
    the x86 kernel's vmalloc range is moved to coincide with the Arm
    kernel's direct map and vice versa — so a kernel pointer produced on
    one instance dereferences to the same physical memory on the other.
    We model the result: both kernels direct-map all of physical memory at
    the same [direct_map_base], so fused pointers are interchangeable and
    accessor functions need no pointer arithmetic beyond this mapping. *)

val kernel_vaddr_of_paddr : int -> int
val paddr_of_kernel_vaddr : int -> int
(** Raises [Invalid_argument] for pointers outside the fused window. *)

val is_fused_pointer : int -> bool
