(* Tests for Mir, the builder, both code generators, the interpreter, and
   cross-ISA state transformation. *)

module Node_id = Stramash_sim.Node_id
module Mir = Stramash_isa.Mir
module B = Stramash_isa.Builder
module Machine_code = Stramash_isa.Machine
module Codegen = Stramash_isa.Codegen
module Interp = Stramash_isa.Interp
module Migrate_state = Stramash_isa.Migrate_state

let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

(* A memio over a simple byte hashtable, free of simulated cost. *)
let flat_memio () =
  let mem = Hashtbl.create 64 in
  let load width vaddr =
    let v = ref 0L in
    for i = width - 1 downto 0 do
      let byte = match Hashtbl.find_opt mem (vaddr + i) with Some b -> b | None -> 0 in
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int byte)
    done;
    !v
  in
  let store width vaddr value =
    for i = 0 to width - 1 do
      Hashtbl.replace mem (vaddr + i)
        (Int64.to_int (Int64.logand (Int64.shift_right_logical value (8 * i)) 0xFFL))
    done
  in
  ({ Interp.load; store; fetch = ignore }, mem)

let run_program ?(isa = Node_id.X86) prog =
  let image = Codegen.lower ~isa prog in
  let cpu = Interp.create image in
  let memio, _ = flat_memio () in
  (match Interp.run cpu memio ~fuel:10_000_000 with
  | Interp.Halted -> ()
  | _ -> Alcotest.fail "program did not halt");
  cpu

(* ---------- builder + validate ---------- *)

let test_builder_appends_halt () =
  let b = B.create () in
  ignore (B.immi b 1);
  let p = B.finish b in
  Alcotest.(check bool) "ends with halt" true (p.Mir.code.(Array.length p.Mir.code - 1) = Mir.Halt)

let test_validate_rejects_bad_reg () =
  let p = { Mir.code = [| Mir.Mov (5, 0); Mir.Halt |]; nregs = 2; nlabels = 1 } in
  Alcotest.(check bool) "invalid register detected" true (Result.is_error (Mir.validate p))

let test_validate_rejects_undefined_label () =
  let p = { Mir.code = [| Mir.Jump 0; Mir.Halt |]; nregs = 1; nlabels = 1 } in
  Alcotest.(check bool) "undefined label detected" true (Result.is_error (Mir.validate p))

(* ---------- arithmetic semantics (both ISAs agree with a reference) ---------- *)

let prop_binop_semantics =
  QCheck.Test.make ~name:"interpreter binop semantics match reference on both ISAs" ~count:200
    QCheck.(triple (int_range 0 9) int64 int64)
    (fun (opn, a, bv) ->
      let op = List.nth [ Mir.Add; Mir.Sub; Mir.Mul; Mir.Div; Mir.Rem; Mir.And; Mir.Or; Mir.Xor; Mir.Shl; Mir.Shr ] opn in
      let bv = match op with Mir.Div | Mir.Rem -> (if bv = 0L then 1L else bv) | _ -> bv in
      let reference =
        match op with
        | Mir.Add -> Int64.add a bv
        | Mir.Sub -> Int64.sub a bv
        | Mir.Mul -> Int64.mul a bv
        | Mir.Div -> Int64.div a bv
        | Mir.Rem -> Int64.rem a bv
        | Mir.And -> Int64.logand a bv
        | Mir.Or -> Int64.logor a bv
        | Mir.Xor -> Int64.logxor a bv
        | Mir.Shl -> Int64.shift_left a (Int64.to_int bv land 63)
        | Mir.Shr -> Int64.shift_right_logical a (Int64.to_int bv land 63)
      in
      let build () =
        let b = B.create () in
        let ra = B.imm b a in
        let rb = B.imm b bv in
        let rd = B.bin b op ra rb in
        let out = B.immi b 0x9000 in
        B.store b Mir.W64 rd (Mir.based out);
        B.finish b
      in
      List.for_all
        (fun isa ->
          let image = Codegen.lower ~isa (build ()) in
          let cpu = Interp.create image in
          let memio, mem = flat_memio () in
          (match Interp.run cpu memio ~fuel:1000 with Interp.Halted -> () | _ -> assert false);
          let got = ref 0L in
          for i = 7 downto 0 do
            let byte = match Hashtbl.find_opt mem (0x9000 + i) with Some x -> x | None -> 0 in
            got := Int64.logor (Int64.shift_left !got 8) (Int64.of_int byte)
          done;
          !got = reference)
        Node_id.all)

let test_division_by_zero_traps () =
  let b = B.create () in
  let ra = B.immi b 5 in
  let rb = B.immi b 0 in
  ignore (B.bin b Mir.Div ra rb);
  let image = Codegen.lower ~isa:Node_id.X86 (B.finish b) in
  let cpu = Interp.create image in
  let memio, _ = flat_memio () in
  Alcotest.check_raises "div by zero traps" (Interp.Trap "division by zero") (fun () ->
      ignore (Interp.run cpu memio ~fuel:100))

(* A trap must leave the state the runner's accounting reads between
   [run] calls: pc one past the faulting op and icount including it. A
   fresh run stopped one instruction short must sit on the divide. *)
let test_trap_leaves_state () =
  let b = B.create () in
  let acc = B.immi b 1 in
  B.for_up_const b ~lo:0 ~hi:32 (fun i ->
      let eight = B.immi b 8 in
      let d = B.sub b eight i in
      B.bin_to b Mir.Div acc acc d);
  let image = Codegen.lower ~isa:Node_id.X86 (B.finish b) in
  let memio, _ = flat_memio () in
  let cpu = Interp.create image in
  (match Interp.run cpu memio ~fuel:1_000_000 with
  | exception Interp.Trap _ -> ()
  | _ -> Alcotest.fail "expected a division trap");
  let fault_pc = Interp.pc cpu - 1 in
  (match image.Machine_code.ops.(fault_pc) with
  | Machine_code.MAlu3 (Mir.Div, _, _, _) | Machine_code.MAlu2 (Mir.Div, _, _) -> ()
  | _ -> Alcotest.fail "pc is not one past the divide");
  let n = Interp.icount cpu in
  Alcotest.(check bool) "trapped inside the loop" true (n > 8);
  let replay = Interp.create image in
  (match Interp.run replay memio ~fuel:(n - 1) with
  | Interp.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected to stop one instruction short of the trap");
  checki "stopped on the faulting op" fault_pc (Interp.pc replay);
  Alcotest.check_raises "the next instruction traps" (Interp.Trap "division by zero") (fun () ->
      ignore (Interp.run replay memio ~fuel:1));
  checki "icount counts the faulting op" n (Interp.icount replay)

(* ---------- loops & addressing ---------- *)

let test_loop_and_indexed_store () =
  (* store i*2 into arr[i] for i in [0,10): exercises for_up + indexed mode *)
  let b = B.create () in
  let base = B.immi b 0x4000 in
  B.for_up_const b ~lo:0 ~hi:10 (fun i ->
      let v = B.shli b i 1 in
      B.store b Mir.W64 v (Mir.indexed base i ~scale:8));
  let prog = B.finish b in
  List.iter
    (fun isa ->
      let image = Codegen.lower ~isa prog in
      let cpu = Interp.create image in
      let memio, mem = flat_memio () in
      (match Interp.run cpu memio ~fuel:100_000 with Interp.Halted -> () | _ -> assert false);
      for i = 0 to 9 do
        let b0 = match Hashtbl.find_opt mem (0x4000 + (8 * i)) with Some x -> x | None -> 0 in
        checki (Printf.sprintf "%s arr[%d]" (Node_id.to_string isa) i) (2 * i) b0
      done)
    Node_id.all

let test_for_range_runtime_bounds () =
  let b = B.create () in
  let lo = B.immi b 3 in
  let hi = B.immi b 7 in
  let acc = B.immi b 0 in
  B.for_range b ~from:lo ~to_:hi (fun i -> B.add_to b acc acc i);
  let out = B.immi b 0x5000 in
  B.store b Mir.W64 acc (Mir.based out);
  let cpu = run_program (B.finish b) in
  ignore cpu;
  (* re-run through flat memio to read the value *)
  let image = Codegen.lower ~isa:Node_id.Arm (B.finish b) in
  ignore image

let test_branch_conditions () =
  List.iter
    (fun (cond, a, b_, expect) ->
      let b = B.create () in
      let ra = B.immi b a in
      let rb = B.immi b b_ in
      let out = B.immi b 0x6000 in
      let taken = B.label b in
      let one = B.immi b 1 in
      let zero = B.immi b 0 in
      B.branch b cond ra rb taken;
      B.store b Mir.W64 zero (Mir.based out);
      B.halt b;
      B.place b taken;
      B.store b Mir.W64 one (Mir.based out);
      let prog = B.finish b in
      let image = Codegen.lower ~isa:Node_id.X86 prog in
      let cpu = Interp.create image in
      let memio, mem = flat_memio () in
      (match Interp.run cpu memio ~fuel:1000 with Interp.Halted -> () | _ -> assert false);
      let got = match Hashtbl.find_opt mem 0x6000 with Some x -> x | None -> 0 in
      checki "branch outcome" (if expect then 1 else 0) got)
    [
      (Mir.Eq, 5, 5, true);
      (Mir.Eq, 5, 6, false);
      (Mir.Lt, -1, 0, true);
      (Mir.Ge, 7, 7, true);
      (Mir.Gt, 7, 7, false);
      (Mir.Ne, 1, 2, true);
    ]

(* ---------- ISA differences ---------- *)

let test_arm_immediate_chunks () =
  (* a large constant costs more instructions on armish than on x86ish *)
  let build () =
    let b = B.create () in
    ignore (B.imm b 0x1122334455667788L);
    B.finish b
  in
  let x86 = Codegen.lower ~isa:Node_id.X86 (build ()) in
  let arm = Codegen.lower ~isa:Node_id.Arm (build ()) in
  Alcotest.(check bool) "arm needs more instructions for big immediates" true
    (Array.length arm.Machine_code.ops > Array.length x86.Machine_code.ops)

let test_x86_two_address_penalty () =
  (* d <- a op b with three distinct registers costs x86ish an extra mov *)
  let build () =
    let b = B.create () in
    let ra = B.immi b 1 in
    let rb = B.immi b 2 in
    ignore (B.bin b Mir.Sub ra rb);
    B.finish b
  in
  let x86 = Codegen.lower ~isa:Node_id.X86 (build ()) in
  let arm = Codegen.lower ~isa:Node_id.Arm (build ()) in
  Alcotest.(check bool) "x86 pays a mov" true
    (Array.length x86.Machine_code.ops > Array.length arm.Machine_code.ops)

let test_code_bytes_differ () =
  let b = B.create () in
  let r = B.immi b 100 in
  ignore (B.addi b r 1);
  let prog = B.finish b in
  let x86 = Codegen.lower ~isa:Node_id.X86 prog in
  let arm = Codegen.lower ~isa:Node_id.Arm prog in
  checki "arm ops are 4 bytes" (4 * Array.length arm.Machine_code.ops) arm.Machine_code.code_bytes;
  Alcotest.(check bool) "x86 encodings are variable" true
    (x86.Machine_code.code_bytes <> 4 * Array.length x86.Machine_code.ops)

let test_x86_load_op_fusion () =
  (* Load t <- [m]; Fbin d a t  with t dead afterwards fuses on x86ish *)
  let build () =
    let b = B.create () in
    let base = B.immi b 0x4000 in
    let a = B.fimm b 2.0 in
    let t = B.load b Mir.W64 (Mir.based base) in
    let d = B.fmul b a t in
    let out = B.immi b 0x5000 in
    B.store b Mir.W64 d (Mir.based out);
    B.finish b
  in
  let x86 = Codegen.lower ~isa:Node_id.X86 (build ()) in
  let has_fused =
    Array.exists (function Machine_code.MFAluMem _ -> true | _ -> false) x86.Machine_code.ops
  in
  Alcotest.(check bool) "fused memory operand present" true has_fused;
  (* and the result is still correct *)
  let cpu = Interp.create x86 in
  let memio, mem = flat_memio () in
  memio.Interp.store 8 0x4000 (Int64.bits_of_float 3.5);
  (match Interp.run cpu memio ~fuel:1000 with Interp.Halted -> () | _ -> assert false);
  let got = ref 0L in
  for i = 7 downto 0 do
    let byte = match Hashtbl.find_opt mem (0x5000 + i) with Some x -> x | None -> 0 in
    got := Int64.logor (Int64.shift_left !got 8) (Int64.of_int byte)
  done;
  Alcotest.(check (float 0.0)) "fused result" 7.0 (Int64.float_of_bits !got)

(* ---------- program equivalence across ISAs ---------- *)

let prop_cross_isa_equivalence =
  QCheck.Test.make ~name:"same Mir program produces same memory on both ISAs" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 20) (pair (int_range 0 4) (int_range 0 1000)))
    (fun spec ->
      let build () =
        let b = B.create () in
        let base = B.immi b 0x8000 in
        let acc = B.immi b 0 in
        List.iteri
          (fun slot (opn, v) ->
            let rv = B.immi b v in
            (match opn with
            | 0 -> B.add_to b acc acc rv
            | 1 -> B.bin_to b Mir.Xor acc acc rv
            | 2 -> B.bin_to b Mir.Mul acc acc rv
            | 3 ->
                let shifted = B.shli b rv 2 in
                B.add_to b acc acc shifted
            | _ -> B.store b Mir.W64 rv (Mir.based_disp base ((slot mod 8) * 8)));
            B.store b Mir.W64 acc (Mir.based_disp base (64 + ((slot mod 8) * 8))))
          spec;
        B.finish b
      in
      let dump isa =
        let image = Codegen.lower ~isa (build ()) in
        let cpu = Interp.create image in
        let memio, mem = flat_memio () in
        (match Interp.run cpu memio ~fuel:100_000 with Interp.Halted -> () | _ -> assert false);
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) mem [])
      in
      dump Node_id.X86 = dump Node_id.Arm)

(* ---------- migration state transform ---------- *)

let test_migrate_transform () =
  (* accumulate, migrate, accumulate more; finishing on either ISA must
     produce the same value *)
  let build () =
    let b = B.create () in
    let acc = B.immi b 0 in
    B.for_up_const b ~lo:0 ~hi:10 (fun i -> B.add_to b acc acc i);
    B.migrate_point b 0;
    B.for_up_const b ~lo:0 ~hi:10 (fun i -> B.add_to b acc acc i);
    let out = B.immi b 0x7000 in
    B.store b Mir.W64 acc (Mir.based out);
    B.finish b
  in
  let prog = build () in
  let x86_image = Codegen.lower ~isa:Node_id.X86 prog in
  let arm_image = Codegen.lower ~isa:Node_id.Arm prog in
  let cpu = Interp.create x86_image in
  let memio, mem = flat_memio () in
  (match Interp.run cpu memio ~fuel:1_000_000 with
  | Interp.Migrate 0 -> ()
  | _ -> Alcotest.fail "expected migration point");
  let cpu2 = Migrate_state.transform ~src:cpu ~point:0 ~dst_prog:arm_image in
  (match Interp.run cpu2 memio ~fuel:1_000_000 with
  | Interp.Halted -> ()
  | _ -> Alcotest.fail "expected halt after migration");
  let got = match Hashtbl.find_opt mem 0x7000 with Some x -> x | None -> -1 in
  checki "sum across migration" 90 got

let test_migrate_pc_table () =
  let b = B.create () in
  B.migrate_point b 5;
  B.migrate_point b 9;
  let prog = B.finish b in
  let image = Codegen.lower ~isa:Node_id.Arm prog in
  Alcotest.(check bool) "points recorded in order" true
    (Machine_code.find_migrate_pc image 5 < Machine_code.find_migrate_pc image 9)

let test_syscall_outcome () =
  let b = B.create () in
  let w = B.immi b 0x100 in
  let e = B.immi b 1 in
  B.futex_wait b ~uaddr:w ~expected:e;
  let prog = B.finish b in
  let image = Codegen.lower ~isa:Node_id.X86 prog in
  let cpu = Interp.create image in
  let memio, _ = flat_memio () in
  (match Interp.run cpu memio ~fuel:100 with
  | Interp.Syscall (Mir.Futex_wait _) -> ()
  | _ -> Alcotest.fail "expected futex syscall outcome");
  check64 "uaddr register readable" 0x100L (Interp.reg cpu w)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_binop_semantics; prop_cross_isa_equivalence ]

let () =
  Alcotest.run "isa"
    [
      ( "builder",
        [
          Alcotest.test_case "appends halt" `Quick test_builder_appends_halt;
          Alcotest.test_case "rejects bad reg" `Quick test_validate_rejects_bad_reg;
          Alcotest.test_case "rejects bad label" `Quick test_validate_rejects_undefined_label;
        ] );
      ( "interp",
        [
          Alcotest.test_case "division traps" `Quick test_division_by_zero_traps;
          Alcotest.test_case "loops + indexed stores" `Quick test_loop_and_indexed_store;
          Alcotest.test_case "for_range" `Quick test_for_range_runtime_bounds;
          Alcotest.test_case "branch conditions" `Quick test_branch_conditions;
          Alcotest.test_case "syscall outcome" `Quick test_syscall_outcome;
        ] );
      ("interp_trap", [ Alcotest.test_case "leaves pc + icount" `Quick test_trap_leaves_state ]);
      ( "codegen",
        [
          Alcotest.test_case "arm immediate chunks" `Quick test_arm_immediate_chunks;
          Alcotest.test_case "x86 two-address penalty" `Quick test_x86_two_address_penalty;
          Alcotest.test_case "code bytes" `Quick test_code_bytes_differ;
          Alcotest.test_case "x86 load-op fusion" `Quick test_x86_load_op_fusion;
        ] );
      ( "migration",
        [
          Alcotest.test_case "transform" `Quick test_migrate_transform;
          Alcotest.test_case "pc table" `Quick test_migrate_pc_table;
        ] );
      ("properties", qsuite);
    ]
