(** Mir — the machine-independent mini-IR.

    Workloads are written once in Mir and lowered by {!Codegen} to the two
    toy ISAs ([x86ish], [armish]), giving genuinely different instruction
    streams for the same program — the property the paper's heterogeneous-
    ISA execution and icount validation (Fig. 7) depend on. This plays the
    role of the Popcorn compiler toolchain in our reproduction.

    Mir is deliberately small: integer and IEEE-double arithmetic over an
    unbounded virtual register file, loads/stores with a full addressing
    mode, conditional branches to labels, a futex syscall pair, and
    migration points (the cross-ISA equivalence points at which threads may
    migrate). *)

type reg = int

type width = W8 | W16 | W32 | W64

val bytes_of_width : width -> int

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr

val binop_commutative : binop -> bool

type fbinop = Fadd | Fsub | Fmul | Fdiv

type cond = Eq | Ne | Lt | Le | Gt | Ge

val eval_cond : cond -> int64 -> int64 -> bool
(** Signed comparison semantics. *)

type label = int

type addr = { base : reg; index : reg option; scale : int; disp : int }

val based : reg -> addr
val based_disp : reg -> int -> addr
val indexed : reg -> reg -> scale:int -> addr
val indexed_disp : reg -> reg -> scale:int -> disp:int -> addr

type syscall =
  | Futex_wait of { uaddr : reg; expected : reg }
  | Futex_wake of { uaddr : reg; nwake : int }

type instr =
  | Const of reg * int64
  | Mov of reg * reg
  | Bin of binop * reg * reg * reg (* dst, a, b *)
  | Bini of binop * reg * reg * int64
  | Fbin of fbinop * reg * reg * reg
  | Fconst of reg * float
  | F_of_int of reg * reg
  | Int_of_f of reg * reg
  | Load of width * reg * addr
  | Store of width * reg * addr (* value, address *)
  | Jump of label
  | Branch of cond * reg * reg * label
  | Label of label
  | Syscall of syscall
  | Migrate_point of int
  | Halt

type program = { code : instr array; nregs : int; nlabels : int }

val validate : program -> (unit, string) result
(** Structural checks: register/label ranges, labels defined exactly once,
    positive scales. *)
