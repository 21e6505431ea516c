(** Imperative construction of {!Mir.program}s.

    Two styles coexist: expression helpers ([add], [imm], [load], ...)
    allocate a fresh destination register and return it; in-place helpers
    ([add_to], [set], ...) write to an existing register, which loop bodies
    need. [for_up] builds the canonical counted loop. *)

type t

val create : unit -> t
val fresh : t -> Mir.reg
val label : t -> Mir.label
val place : t -> Mir.label -> unit
val emit : t -> Mir.instr -> unit

(* Expression style. *)
val imm : t -> int64 -> Mir.reg
val immi : t -> int -> Mir.reg
val fimm : t -> float -> Mir.reg
val mov : t -> Mir.reg -> Mir.reg
val bin : t -> Mir.binop -> Mir.reg -> Mir.reg -> Mir.reg
val add : t -> Mir.reg -> Mir.reg -> Mir.reg
val addi : t -> Mir.reg -> int -> Mir.reg
val sub : t -> Mir.reg -> Mir.reg -> Mir.reg
val mul : t -> Mir.reg -> Mir.reg -> Mir.reg
val muli : t -> Mir.reg -> int -> Mir.reg
val shli : t -> Mir.reg -> int -> Mir.reg
val shri : t -> Mir.reg -> int -> Mir.reg
val andi : t -> Mir.reg -> int -> Mir.reg
val remi : t -> Mir.reg -> int -> Mir.reg
val fadd : t -> Mir.reg -> Mir.reg -> Mir.reg
val fsub : t -> Mir.reg -> Mir.reg -> Mir.reg
val fmul : t -> Mir.reg -> Mir.reg -> Mir.reg
val fdiv : t -> Mir.reg -> Mir.reg -> Mir.reg
val f_of_int : t -> Mir.reg -> Mir.reg
val load : t -> Mir.width -> Mir.addr -> Mir.reg

(* In-place style. *)
val set : t -> Mir.reg -> Mir.reg -> unit
val seti : t -> Mir.reg -> int -> unit
val bin_to : t -> Mir.binop -> Mir.reg -> Mir.reg -> Mir.reg -> unit
val add_to : t -> Mir.reg -> Mir.reg -> Mir.reg -> unit
val addi_to : t -> Mir.reg -> Mir.reg -> int -> unit
val fadd_to : t -> Mir.reg -> Mir.reg -> Mir.reg -> unit
val store : t -> Mir.width -> Mir.reg -> Mir.addr -> unit

(* Control flow. *)
val jump : t -> Mir.label -> unit
val branch : t -> Mir.cond -> Mir.reg -> Mir.reg -> Mir.label -> unit
val branchi : t -> Mir.cond -> Mir.reg -> int -> Mir.label -> unit
(** Compares against an immediate by materialising it. *)

val for_up : t -> lo:int -> hi:Mir.reg -> (Mir.reg -> unit) -> unit
(** [for_up b ~lo ~hi body] iterates a fresh counter from [lo] (inclusive)
    to the value of [hi] (exclusive), running [body counter] each time. *)

val for_up_const : t -> lo:int -> hi:int -> (Mir.reg -> unit) -> unit

(** [for_range] is a counted loop with runtime bounds: from (inclusive) to
    to_ (exclusive). The counter is a fresh register; the bound registers
    are read once per iteration and must not be clobbered by the body. *)
val for_range : t -> from:Mir.reg -> to_:Mir.reg -> (Mir.reg -> unit) -> unit
val migrate_point : t -> int -> unit
val futex_wait : t -> uaddr:Mir.reg -> expected:Mir.reg -> unit
val futex_wake : t -> uaddr:Mir.reg -> nwake:int -> unit
val halt : t -> unit

val finish : t -> Mir.program
(** Appends a trailing [Halt] if the last instruction is not one, and
    validates the program (raises [Invalid_argument] on malformed code). *)
