(** Address arithmetic shared by the whole simulator.

    Physical and virtual addresses are plain [int]s (63-bit native ints
    comfortably cover the 8 GB simulated physical space and 48-bit virtual
    space). Pages are 4 KiB, cache lines 64 B, as in the paper. *)

type paddr = int
type vaddr = int

val page_size : int (* 4096 *)
val page_shift : int (* 12 *)
val line_size : int (* 64 *)
val line_shift : int (* 6 *)

val kib : int -> int
val mib : int -> int
val gib : int -> int

val page_of : int -> int
(** Frame / virtual-page number of an address. *)

val page_base : int -> int
val page_offset : int -> int
val line_of : int -> int
val line_base : int -> int
val is_page_aligned : int -> bool
val align_up : int -> alignment:int -> int
val align_down : int -> alignment:int -> int

val lines_spanned : int -> len:int -> int
(** Number of distinct cache lines touched by [len] bytes at an address. *)

val pp_hex : Format.formatter -> int -> unit
(** Hexadecimal rendering, e.g. [0x1_0000_0000]. *)
