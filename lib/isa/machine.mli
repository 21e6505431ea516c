(** Machine-level programs: the common executable representation the two
    code generators target.

    Each [mop] is exactly one architectural instruction of the toy ISA;
    codegen decides how many of them a Mir instruction needs (this is where
    per-ISA icount differences come from). [code_off] assigns every op a
    byte offset in the text segment, with x86ish variable-length encodings
    and fixed 4-byte armish ones, so instruction fetch exercises the I-cache
    realistically. *)

type mem = { mbase : Mir.reg; mindex : Mir.reg option; mscale : int; mdisp : int }

type mop =
  | MImm of Mir.reg * int64 (* load immediate *)
  | MMovR of Mir.reg * Mir.reg
  | MAlu3 of Mir.binop * Mir.reg * Mir.reg * Mir.reg (* armish: d <- a op b *)
  | MAlu2 of Mir.binop * Mir.reg * Mir.reg (* x86ish: d <- d op s *)
  | MAluI of Mir.binop * Mir.reg * int64 (* d <- d op imm *)
  | MAlu3I of Mir.binop * Mir.reg * Mir.reg * int64 (* armish: d <- a op imm *)
  | MLoad of Mir.width * Mir.reg * mem
  | MStore of Mir.width * Mir.reg * mem
  | MAluMem of Mir.binop * Mir.reg * mem (* x86ish: d <- d op [mem] *)
  | MFAluMem of Mir.fbinop * Mir.reg * mem
  | MFAlu3 of Mir.fbinop * Mir.reg * Mir.reg * Mir.reg
  | MFAlu2 of Mir.fbinop * Mir.reg * Mir.reg
  | MCvtIF of Mir.reg * Mir.reg (* int -> double *)
  | MCvtFI of Mir.reg * Mir.reg
  | MJmp of int (* target op index *)
  | MBr of Mir.cond * Mir.reg * Mir.reg * int
  | MSyscall of Mir.syscall
  | MMigrate of int
  | MHalt

type program = {
  isa : Stramash_sim.Node_id.t;
  ops : mop array;
  code_off : int array; (* byte offset of each op in the text segment *)
  code_bytes : int;
  migrate_pcs : (int * int) list; (* migration-point id -> op index *)
  nregs : int; (* including codegen scratch registers *)
}

val op_bytes : Stramash_sim.Node_id.t -> mop -> int
(** Encoded size of one instruction on the given ISA. *)

val find_migrate_pc : program -> int -> int
(** Op index of a migration point; raises [Not_found]. *)

val pp_program : Format.formatter -> program -> unit
(** Disassembly listing: op index, text-segment byte offset, rendered
    instruction; migration points are annotated. *)
