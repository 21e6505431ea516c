type t = {
  mutable code : Mir.instr list; (* reversed *)
  mutable len : int;
  mutable nregs : int;
  mutable nlabels : int;
}

let create () = { code = []; len = 0; nregs = 0; nlabels = 0 }

let fresh t =
  let r = t.nregs in
  t.nregs <- t.nregs + 1;
  r

let label t =
  let l = t.nlabels in
  t.nlabels <- t.nlabels + 1;
  l

let emit t i =
  t.code <- i :: t.code;
  t.len <- t.len + 1

let place t l = emit t (Mir.Label l)

let imm t v =
  let r = fresh t in
  emit t (Mir.Const (r, v));
  r

let immi t v = imm t (Int64.of_int v)

let fimm t v =
  let r = fresh t in
  emit t (Mir.Fconst (r, v));
  r

let mov t s =
  let r = fresh t in
  emit t (Mir.Mov (r, s));
  r

let bin t op a b =
  let r = fresh t in
  emit t (Mir.Bin (op, r, a, b));
  r

let bini t op a v =
  let r = fresh t in
  emit t (Mir.Bini (op, r, a, Int64.of_int v));
  r

let add t a b = bin t Mir.Add a b
let addi t a v = bini t Mir.Add a v
let sub t a b = bin t Mir.Sub a b
let mul t a b = bin t Mir.Mul a b
let muli t a v = bini t Mir.Mul a v
let shli t a v = bini t Mir.Shl a v
let shri t a v = bini t Mir.Shr a v
let andi t a v = bini t Mir.And a v
let remi t a v = bini t Mir.Rem a v

let fbin t op a b =
  let r = fresh t in
  emit t (Mir.Fbin (op, r, a, b));
  r

let fadd t a b = fbin t Mir.Fadd a b
let fsub t a b = fbin t Mir.Fsub a b
let fmul t a b = fbin t Mir.Fmul a b
let fdiv t a b = fbin t Mir.Fdiv a b

let f_of_int t s =
  let r = fresh t in
  emit t (Mir.F_of_int (r, s));
  r

let load t w a =
  let r = fresh t in
  emit t (Mir.Load (w, r, a));
  r

let set t d s = emit t (Mir.Mov (d, s))
let seti t d v = emit t (Mir.Const (d, Int64.of_int v))
let bin_to t op d a b = emit t (Mir.Bin (op, d, a, b))
let add_to t d a b = emit t (Mir.Bin (Mir.Add, d, a, b))
let addi_to t d a v = emit t (Mir.Bini (Mir.Add, d, a, Int64.of_int v))
let fadd_to t d a b = emit t (Mir.Fbin (Mir.Fadd, d, a, b))
let store t w s a = emit t (Mir.Store (w, s, a))

let jump t l = emit t (Mir.Jump l)
let branch t c a b l = emit t (Mir.Branch (c, a, b, l))

let branchi t c a v l =
  let r = immi t v in
  branch t c a r l

let for_up t ~lo ~hi body =
  let counter = fresh t in
  seti t counter lo;
  let top = label t in
  let exit = label t in
  place t top;
  branch t Mir.Ge counter hi exit;
  body counter;
  addi_to t counter counter 1;
  jump t top;
  place t exit

let for_up_const t ~lo ~hi body =
  let bound = immi t hi in
  for_up t ~lo ~hi:bound body

let for_range t ~from ~to_ body =
  let counter = mov t from in
  let top = label t in
  let exit = label t in
  place t top;
  branch t Mir.Ge counter to_ exit;
  body counter;
  addi_to t counter counter 1;
  jump t top;
  place t exit

let migrate_point t id = emit t (Mir.Migrate_point id)
let futex_wait t ~uaddr ~expected = emit t (Mir.Syscall (Mir.Futex_wait { uaddr; expected }))
let futex_wake t ~uaddr ~nwake = emit t (Mir.Syscall (Mir.Futex_wake { uaddr; nwake }))
let halt t = emit t (Mir.Halt)

let finish t =
  (match t.code with
  | Mir.Halt :: _ -> ()
  | _ -> emit t Mir.Halt);
  let code = Array.of_list (List.rev t.code) in
  let program = { Mir.code; nregs = max t.nregs 1; nlabels = max t.nlabels 1 } in
  match Mir.validate program with
  | Ok () -> program
  | Error msg -> invalid_arg ("Builder.finish: " ^ msg)
