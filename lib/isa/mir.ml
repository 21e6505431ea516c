type reg = int

type width = W8 | W16 | W32 | W64

let bytes_of_width = function W8 -> 1 | W16 -> 2 | W32 -> 4 | W64 -> 8

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr

let binop_commutative = function
  | Add | Mul | And | Or | Xor -> true
  | Sub | Div | Rem | Shl | Shr -> false

type fbinop = Fadd | Fsub | Fmul | Fdiv

type cond = Eq | Ne | Lt | Le | Gt | Ge

(* Inlined into the interpreter's dispatch loop, which takes a branch per
   simulated loop iteration and keeps the operands unboxed. *)
let[@inline] eval_cond cond a b =
  let c = Int64.compare a b in
  match cond with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

type label = int

type addr = { base : reg; index : reg option; scale : int; disp : int }

let based base = { base; index = None; scale = 1; disp = 0 }
let based_disp base disp = { base; index = None; scale = 1; disp }
let indexed base index ~scale = { base; index = Some index; scale; disp = 0 }
let indexed_disp base index ~scale ~disp = { base; index = Some index; scale; disp }

type syscall =
  | Futex_wait of { uaddr : reg; expected : reg }
  | Futex_wake of { uaddr : reg; nwake : int }

type instr =
  | Const of reg * int64
  | Mov of reg * reg
  | Bin of binop * reg * reg * reg
  | Bini of binop * reg * reg * int64
  | Fbin of fbinop * reg * reg * reg
  | Fconst of reg * float
  | F_of_int of reg * reg
  | Int_of_f of reg * reg
  | Load of width * reg * addr
  | Store of width * reg * addr
  | Jump of label
  | Branch of cond * reg * reg * label
  | Label of label
  | Syscall of syscall
  | Migrate_point of int
  | Halt

type program = { code : instr array; nregs : int; nlabels : int }

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let fbinop_name = function Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"

let cond_name = function Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let pp_addr fmt a =
  match a.index with
  | None -> Format.fprintf fmt "[r%d%+d]" a.base a.disp
  | Some i -> Format.fprintf fmt "[r%d+r%d*%d%+d]" a.base i a.scale a.disp

let width_name = function W8 -> "8" | W16 -> "16" | W32 -> "32" | W64 -> "64"

let pp_instr fmt = function
  | Const (r, v) -> Format.fprintf fmt "r%d <- %Ld" r v
  | Mov (d, s) -> Format.fprintf fmt "r%d <- r%d" d s
  | Bin (op, d, a, b) -> Format.fprintf fmt "r%d <- %s r%d, r%d" d (binop_name op) a b
  | Bini (op, d, a, v) -> Format.fprintf fmt "r%d <- %s r%d, %Ld" d (binop_name op) a v
  | Fbin (op, d, a, b) -> Format.fprintf fmt "r%d <- %s r%d, r%d" d (fbinop_name op) a b
  | Fconst (r, v) -> Format.fprintf fmt "r%d <- %g" r v
  | F_of_int (d, s) -> Format.fprintf fmt "r%d <- float(r%d)" d s
  | Int_of_f (d, s) -> Format.fprintf fmt "r%d <- int(r%d)" d s
  | Load (w, d, a) -> Format.fprintf fmt "r%d <- load%s %a" d (width_name w) pp_addr a
  | Store (w, s, a) -> Format.fprintf fmt "store%s r%d, %a" (width_name w) s pp_addr a
  | Jump l -> Format.fprintf fmt "jump L%d" l
  | Branch (c, a, b, l) -> Format.fprintf fmt "br.%s r%d, r%d -> L%d" (cond_name c) a b l
  | Label l -> Format.fprintf fmt "L%d:" l
  | Syscall (Futex_wait { uaddr; expected }) ->
      Format.fprintf fmt "futex_wait [r%d] == r%d" uaddr expected
  | Syscall (Futex_wake { uaddr; nwake }) -> Format.fprintf fmt "futex_wake [r%d] n=%d" uaddr nwake
  | Migrate_point id -> Format.fprintf fmt "migrate_point %d" id
  | Halt -> Format.fprintf fmt "halt"

let validate p =
  let fail fmt_str = Printf.ksprintf (fun s -> Error s) fmt_str in
  let check_reg r = r >= 0 && r < p.nregs in
  let check_label l = l >= 0 && l < p.nlabels in
  let defined = Array.make (max p.nlabels 1) 0 in
  Array.iter (function Label l when l >= 0 && l < p.nlabels -> defined.(l) <- defined.(l) + 1 | _ -> ()) p.code;
  let exception Bad of string in
  let bad fmt_str = Printf.ksprintf (fun s -> raise (Bad s)) fmt_str in
  let reg r = if not (check_reg r) then bad "register r%d out of range" r in
  let addr a =
    reg a.base;
    (match a.index with Some i -> reg i | None -> ());
    if a.scale <= 0 then bad "non-positive scale %d" a.scale
  in
  let lbl l =
    if not (check_label l) then bad "label L%d out of range" l
    else if defined.(l) <> 1 then bad "label L%d defined %d times" l defined.(l)
  in
  try
    Array.iter
      (function
        | Const (r, _) | Fconst (r, _) -> reg r
        | Mov (d, s) | F_of_int (d, s) | Int_of_f (d, s) ->
            reg d;
            reg s
        | Bin (_, d, a, b) | Fbin (_, d, a, b) ->
            reg d;
            reg a;
            reg b
        | Bini (_, d, a, _) ->
            reg d;
            reg a
        | Load (_, d, a) ->
            reg d;
            addr a
        | Store (_, s, a) ->
            reg s;
            addr a
        | Jump l -> lbl l
        | Branch (_, a, b, l) ->
            reg a;
            reg b;
            lbl l
        | Label l -> if not (check_label l) then bad "label L%d out of range" l
        | Syscall (Futex_wait { uaddr; expected }) ->
            reg uaddr;
            reg expected
        | Syscall (Futex_wake { uaddr; _ }) -> reg uaddr
        | Migrate_point _ | Halt -> ())
      p.code;
    Ok ()
  with Bad s -> fail "%s" s
