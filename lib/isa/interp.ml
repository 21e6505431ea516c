type memio = {
  load : int -> int -> int64;
  store : int -> int -> int64 -> unit;
  fetch : int -> unit;
}

(* The register file is a flat byte buffer of 8-byte slots read and
   written with the unboxed 64-bit primitives, so an ALU or FP result
   goes from operands to its slot without a heap-allocated [int64] box.
   Register [r] lives at byte offset [r * 8]. *)
type t = {
  prog : Machine.program;
  register_file : Bytes.t;
  mutable pc : int;
  mutable icount : int;
  mutable halted : bool;
}

type outcome = Out_of_fuel | Halted | Migrate of int | Syscall of Mir.syscall

exception Trap of string

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Every register index is validated here, once, so the dispatch loop can
   use unchecked accesses on the register file. *)
let validate_registers (prog : Machine.program) =
  let n = prog.Machine.nregs in
  let ok r = r >= 0 && r < n in
  let okm (m : Machine.mem) =
    ok m.Machine.mbase
    && match m.Machine.mindex with None -> true | Some i -> ok i
  in
  let valid = function
    | Machine.MImm (r, _) -> ok r
    | Machine.MMovR (d, s)
    | Machine.MAlu2 (_, d, s)
    | Machine.MFAlu2 (_, d, s)
    | Machine.MCvtIF (d, s)
    | Machine.MCvtFI (d, s) -> ok d && ok s
    | Machine.MAlu3 (_, d, a, b) | Machine.MFAlu3 (_, d, a, b) -> ok d && ok a && ok b
    | Machine.MAluI (_, d, _) -> ok d
    | Machine.MAlu3I (_, d, a, _) -> ok d && ok a
    | Machine.MLoad (_, d, m) | Machine.MAluMem (_, d, m) | Machine.MFAluMem (_, d, m) ->
        ok d && okm m
    | Machine.MStore (_, s, m) -> ok s && okm m
    | Machine.MBr (_, a, b, _) -> ok a && ok b
    | Machine.MJmp _ | Machine.MSyscall _ | Machine.MMigrate _ | Machine.MHalt -> true
  in
  Array.iteri
    (fun i op ->
      if not (valid op) then
        invalid_arg
          (Printf.sprintf "Interp.create: op %d references a register outside nregs=%d" i n))
    prog.Machine.ops

let create prog =
  validate_registers prog;
  {
    prog;
    register_file = Bytes.make (prog.Machine.nregs * 8) '\000';
    pc = 0;
    icount = 0;
    halted = false;
  }

let program t = t.prog
let pc t = t.pc
let set_pc t pc = t.pc <- pc
let icount t = t.icount

(* Bounds-checked, native-endian like the unchecked primitives above. *)
let reg t r = Bytes.get_int64_ne t.register_file (r * 8)
let set_reg t r v = Bytes.set_int64_ne t.register_file (r * 8) v

(* The evaluators are inlined into the dispatch loop, where operands come
   straight from and results go straight to the register file: inlined,
   no [int64] is ever boxed. *)
let[@inline] eval_binop op a b =
  match op with
  | Mir.Add -> Int64.add a b
  | Mir.Sub -> Int64.sub a b
  | Mir.Mul -> Int64.mul a b
  | Mir.Div -> if b = 0L then raise (Trap "division by zero") else Int64.div a b
  | Mir.Rem -> if b = 0L then raise (Trap "remainder by zero") else Int64.rem a b
  | Mir.And -> Int64.logand a b
  | Mir.Or -> Int64.logor a b
  | Mir.Xor -> Int64.logxor a b
  | Mir.Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Mir.Shr -> Int64.shift_right_logical a (Int64.to_int b land 63)

let[@inline] eval_fbinop op a b =
  let x = Int64.float_of_bits a and y = Int64.float_of_bits b in
  let r =
    match op with
    | Mir.Fadd -> x +. y
    | Mir.Fsub -> x -. y
    | Mir.Fmul -> x *. y
    | Mir.Fdiv -> x /. y
  in
  Int64.bits_of_float r

(* Register indices were validated at [create]; unchecked accesses here
   are in bounds by construction. *)
let[@inline] effective_address regs (m : Machine.mem) =
  let base = Int64.to_int (get64u regs (m.Machine.mbase * 8)) in
  let idx =
    match m.Machine.mindex with
    | None -> 0
    | Some i -> Int64.to_int (get64u regs (i * 8)) * m.Machine.mscale
  in
  base + idx + m.Machine.mdisp

let run t memio ~fuel =
  if t.halted then Halted
  else begin
    let ops = t.prog.Machine.ops in
    let code_off = t.prog.Machine.code_off in
    let regs = t.register_file in
    let nops = Array.length ops in
    let code_base = Codegen.code_base in
    (* Hoist the memio closures out of their record: one field load here
       instead of one per simulated instruction. *)
    let fetch = memio.fetch in
    let load = memio.load in
    let store = memio.store in
    let remaining = ref fuel in
    let result = ref Out_of_fuel in
    let running = ref true in
    (* [pc] and [icount] live in locals for the duration of the loop and are
       flushed on every exit path. Nothing observes them mid-run: the memio
       closures never read interpreter state, and external readers
       ([Runner.account], the schedulers) only run between [run] calls. *)
    let pcr = ref t.pc in
    let ic = ref t.icount in
    (try
       while !running && !remaining > 0 do
         let pc = !pcr in
         if pc < 0 || pc >= nops then raise (Trap "pc out of text segment");
         fetch (code_base + Array.unsafe_get code_off pc);
         ic := !ic + 1;
         decr remaining;
         pcr := pc + 1;
         (* [pc < nops] was just checked, so ops/code_off reads are in
            bounds; register indices were validated at [create]. *)
         match Array.unsafe_get ops pc with
         | Machine.MImm (r, v) -> set64u regs (r * 8) v
         | Machine.MMovR (d, s) -> set64u regs (d * 8) (get64u regs (s * 8))
         | Machine.MAlu3 (op, d, a, b) ->
             set64u regs (d * 8)
               (eval_binop op (get64u regs (a * 8)) (get64u regs (b * 8)))
         | Machine.MAlu2 (op, d, s) ->
             set64u regs (d * 8)
               (eval_binop op (get64u regs (d * 8)) (get64u regs (s * 8)))
         | Machine.MAluI (op, d, v) ->
             set64u regs (d * 8) (eval_binop op (get64u regs (d * 8)) v)
         | Machine.MAlu3I (op, d, a, v) ->
             set64u regs (d * 8) (eval_binop op (get64u regs (a * 8)) v)
         | Machine.MLoad (w, d, m) ->
             let va = effective_address regs m in
             set64u regs (d * 8) (load (Mir.bytes_of_width w) va)
         | Machine.MStore (w, s, m) ->
             let va = effective_address regs m in
             store (Mir.bytes_of_width w) va (get64u regs (s * 8))
         | Machine.MAluMem (op, d, m) ->
             let va = effective_address regs m in
             set64u regs (d * 8) (eval_binop op (get64u regs (d * 8)) (load 8 va))
         | Machine.MFAluMem (op, d, m) ->
             let va = effective_address regs m in
             set64u regs (d * 8) (eval_fbinop op (get64u regs (d * 8)) (load 8 va))
         | Machine.MFAlu3 (op, d, a, b) ->
             set64u regs (d * 8)
               (eval_fbinop op (get64u regs (a * 8)) (get64u regs (b * 8)))
         | Machine.MFAlu2 (op, d, s) ->
             set64u regs (d * 8)
               (eval_fbinop op (get64u regs (d * 8)) (get64u regs (s * 8)))
         | Machine.MCvtIF (d, s) ->
             set64u regs (d * 8)
               (Int64.bits_of_float (Int64.to_float (get64u regs (s * 8))))
         | Machine.MCvtFI (d, s) ->
             set64u regs (d * 8)
               (Int64.of_float (Int64.float_of_bits (get64u regs (s * 8))))
         | Machine.MJmp target -> pcr := target
         | Machine.MBr (c, a, b, target) ->
             if Mir.eval_cond c (get64u regs (a * 8)) (get64u regs (b * 8)) then pcr := target
         | Machine.MSyscall s ->
             result := Syscall s;
             running := false
         | Machine.MMigrate id ->
             result := Migrate id;
             running := false
         | Machine.MHalt ->
             t.halted <- true;
             result := Halted;
             running := false
       done
     with e ->
       t.pc <- !pcr;
       t.icount <- !ic;
       raise e);
    t.pc <- !pcr;
    t.icount <- !ic;
    !result
  end
