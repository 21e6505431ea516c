(* Shared plumbing for the seeded campaigns (faults, chaos, place, gray,
   scrub, serve): the verdict and its exit code, the campaign bench set,
   the fault-free baseline fingerprint, the Stramash invariant audits,
   and the domain-pool soak. Each campaign module keeps only its own
   schedule, report lines and verdict rule. *)

module Node_id = Stramash_sim.Node_id
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Os = Stramash_machine.Os
module Spec = Stramash_machine.Spec
module Process = Stramash_kernel.Process
module Audit = Stramash_fault_inject.Audit
module Plan = Stramash_fault_inject.Plan
module Stramash_os = Stramash_core.Stramash_os
module Stramash_fault = Stramash_core.Stramash_fault
module Global_alloc = Stramash_core.Global_alloc
module Checkpoint = Stramash_core.Checkpoint
module Engine = Stramash_placement.Engine
module W = Stramash_workloads

type verdict = Clean | Violations | Unrecovered | Unknown_bench

let verdict_to_string = function
  | Clean -> "CLEAN"
  | Violations -> "VIOLATIONS"
  | Unrecovered -> "UNRECOVERED"
  | Unknown_bench -> "UNKNOWN-BENCH"

(* The CLI contract every campaign shares: 0 = campaign ran and every
   fault recovered; 1 = invariant violation or unrecovered failure;
   2 = unusable arguments. *)
let exit_code = function
  | Clean -> 0
  | Violations | Unrecovered -> 1
  | Unknown_bench -> 2

let worst a b = if exit_code b > exit_code a then b else a

(* Small problem sizes: a campaign's point is fault-path coverage, not
   steady-state performance, and the tests run campaigns back to back.
   The set itself comes from the shared NPB table. *)
let benches = W.Npb_suite.fig9_names

let spec_of_bench bench = List.assoc_opt bench (W.Npb_suite.fig9_set ~small:true)

let with_bench fmt ~campaign bench k =
  match spec_of_bench bench with
  | None ->
      Format.fprintf fmt "unknown benchmark %s (%s campaign runs %s)@." bench campaign
        (String.concat " | " benches);
      Unknown_bench
  | Some spec -> k spec

(* A campaign's concrete schedule is built from its baseline, so only
   now can it meet {!Plan.validate}: a rejected plan ends the report. *)
let with_plan fmt config k =
  match Plan.validate config with
  | Error msg ->
      Format.fprintf fmt "invalid fault-plan config: %s@." msg;
      Format.fprintf fmt "campaign verdict: %s@." (verdict_to_string Unknown_bench);
      Unknown_bench
  | Ok () -> k ()

let attach ?epoch ~policy machine =
  match Machine.os machine with
  | Os.Stramash os ->
      let engine = Engine.create ?epoch ~policy os in
      Machine.attach_placement machine engine;
      engine
  | _ -> invalid_arg "placement: the engine requires the Stramash personality"

let machine ~seed ~cache_mode ?inject ?placement () =
  let machine =
    Machine.create
      {
        Machine.default_config with
        Machine.os = Machine.Stramash_kernel_os;
        seed;
        cache_mode;
        inject;
      }
  in
  Option.iter (fun policy -> ignore (attach ~policy machine)) placement;
  machine

(* Read the NPB checksum word through whichever kernel still maps it —
   the workload fingerprint a campaign's survivors must match. *)
let checksum machine ~proc =
  List.find_map
    (fun node ->
      Machine.read_user machine ~proc ~node ~vaddr:W.Npb_common.checksum_vaddr ~width:8)
    Node_id.all

let checksum_to_string = function Some c -> Printf.sprintf "0x%Lx" c | None -> "<unmapped>"

let report_checksum fmt ~label ~baseline chk =
  let ok = chk = baseline && chk <> None in
  Format.fprintf fmt "%s checksum: %s (%s baseline)@." label (checksum_to_string chk)
    (if ok then "matches" else "DIFFERS from");
  ok

(* First cycle at which the baseline run lands the thread on a node other
   than its origin — the moment that node's page table is coldest, and so
   the anchor the chaos, gray and scrub schedules build around. *)
let far_anchor ~(spec : Spec.t) ~origin (result : Runner.result) =
  List.fold_left
    (fun acc (id, cyc) ->
      match Spec.target_for spec id with
      | Some node when not (Node_id.equal node origin) -> (
          match acc with Some c when c <= cyc -> acc | _ -> Some cyc)
      | _ -> acc)
    None result.Runner.phase_marks

type baseline = { wall : int; fingerprint : int64 option; origin : Node_id.t; anchor : int option }

let baseline ~seed ~cache_mode ?placement spec =
  let machine = machine ~seed ~cache_mode ?placement () in
  let proc, thread = Machine.load machine spec in
  let result = Runner.run machine proc thread spec in
  let fingerprint = checksum machine ~proc in
  let origin = proc.Process.origin in
  Machine.exit_process machine proc;
  {
    wall = result.Runner.wall_cycles;
    fingerprint;
    origin;
    anchor = far_anchor ~spec ~origin result;
  }

let pp_baseline fmt b =
  Format.fprintf fmt "baseline: wall=%d cycles, checksum=%s@." b.wall
    (checksum_to_string b.fingerprint)

(* The Stramash kernel invariant audit: page tables and frames, futex
   waiters and the downtime holding area, the hotplug ledger, and PTL
   quiescence, plus the caller's [extra] predicates. *)
let audit fmt machine ~proc ~dirty ?prefix ?(extra = []) label =
  let label = match prefix with Some p -> p ^ ":" ^ label | None -> label in
  let invariants, held, ledger =
    match Machine.os machine with
    | Os.Stramash os ->
        let faults = Stramash_os.faults os in
        ( [ ("ptl-quiescent", Stramash_fault.ptls_quiescent faults) ],
          List.map
            (fun (f : Checkpoint.futex_image) -> (f.Checkpoint.f_uaddr, f.Checkpoint.f_tid))
            (Stramash_fault.held_waiters faults),
          Global_alloc.ledger (Stramash_os.global_alloc os) )
    | _ -> ([], [], [])
  in
  let report =
    Audit.run ~env:(Machine.env machine) ~procs:[ proc ] ~threads:(Machine.threads machine) ~held
      ~ledger ~extra:(extra @ invariants) ()
  in
  if Audit.is_clean report then
    Format.fprintf fmt "audit[%s]: clean (%d checks)@." label report.Audit.checks
  else begin
    incr dirty;
    Format.fprintf fmt "audit[%s]: %a" label Audit.pp report
  end

let on_recovery fmt machine ~proc ~dirty ~recoveries node =
  incr recoveries;
  audit fmt machine ~proc ~dirty
    (Printf.sprintf "recovery-%d:%s" !recoveries (Node_id.to_string node))

let final_audits fmt machine ~proc ~dirty ?prefix ?extra () =
  audit fmt machine ~proc ~dirty ?prefix ?extra "final";
  let label = match prefix with Some p -> p ^ ":teardown" | None -> "teardown" in
  let env = Machine.env machine in
  let mapped = Audit.mapped_frames ~env ~proc in
  Machine.exit_process machine proc;
  let teardown = Audit.check_teardown ~env ~procs:[ proc ] ~mapped in
  if Audit.is_clean teardown then
    Format.fprintf fmt "audit[%s]: clean (%d frames tracked)@." label (List.length mapped)
  else begin
    incr dirty;
    Format.fprintf fmt "audit[%s]: %a" label Audit.pp teardown
  end

(* K campaign cells at derived seeds (seed + cell index) over D host
   domains. Each cell renders into its own buffer, so cells share no
   mutable state, and buffers are emitted in cell order whatever the host
   interleaving: a 1-domain and an N-domain soak are byte-identical. The
   header names no host facts (the domain count included). *)
let soak fmt ~header ~seed ~cells ~domains cell =
  let task i () =
    let buf = Buffer.create 4096 in
    let bfmt = Format.formatter_of_buffer buf in
    let seed_i = Int64.add seed (Int64.of_int i) in
    let verdict = cell bfmt seed_i in
    Format.pp_print_flush bfmt ();
    (seed_i, verdict, Buffer.contents buf)
  in
  Format.fprintf fmt "%s@." header;
  let results = Stramash_sim.Domain_pool.map ~domains (Array.init cells task) in
  Array.iteri
    (fun i (seed_i, _, output) ->
      Format.fprintf fmt "@.--- cell %d (seed %Ld) ---@.%s" i seed_i output)
    results;
  let verdict = Array.fold_left (fun acc (_, v, _) -> worst acc v) Clean results in
  Format.fprintf fmt "@.soak verdict: %s (%d cells)@." (verdict_to_string verdict) cells;
  (verdict, Array.to_list results |> List.mapi (fun i (s, v, _) -> (i, s, v)))
