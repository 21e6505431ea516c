(** Interpreter for machine programs — the CPU-emulation half of
    Stramash-QEMU.

    The interpreter is purely architectural: it executes instructions and
    counts them (icount, §7.3). All memory traffic goes through the
    {!memio} callbacks supplied by the node, which perform address
    translation and cache simulation and account the resulting latency;
    instruction fetches are reported per instruction with their text-segment
    virtual address so the I-cache is exercised. *)

type memio = {
  load : int -> int -> int64; (* load width_bytes vaddr, zero-extended *)
  store : int -> int -> int64 -> unit; (* store width_bytes vaddr value *)
  fetch : int -> unit; (* instruction fetch at code vaddr *)
}

type t

type outcome =
  | Out_of_fuel (* fuel exhausted; call {!run} again *)
  | Halted
  | Migrate of int (* reached migration point [id] *)
  | Syscall of Mir.syscall (* kernel must handle, then re-run *)

exception Trap of string
(** Division by zero or a jump out of the text segment. *)

val create : Machine.program -> t
val program : t -> Machine.program
val pc : t -> int
val set_pc : t -> int -> unit
val icount : t -> int
val reg : t -> Mir.reg -> int64
(** @raise Invalid_argument outside the program's [nregs]. *)

val set_reg : t -> Mir.reg -> int64 -> unit
(** @raise Invalid_argument outside the program's [nregs]. *)

val run : t -> memio -> fuel:int -> outcome
(** Execute at most [fuel] instructions. *)

val halted : t -> bool
