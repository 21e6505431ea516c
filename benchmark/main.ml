(* The repository benchmark. Four workloads separate the simulator's layers
   and are measured on two axes: host time (how fast the simulator runs) and
   simulated time (what the modelled machine would take).

     main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

   A run repeats the workload's rep until [--seconds] of wall time have
   passed and reports host timings as medians over reps. With [--trace 0]
   it prints the end-to-end metrics. With [--trace 1] it then runs one more
   rep with the simulator's tracer and a cache probe installed, replays the
   recorded streams into single layers, and prints the per-layer metrics
   instead. Each metric is printed as [name value unit]; the last line of
   stdout is one JSON object {correct, attempted, failed, metrics}. Per-rep
   samples (and, when traced, the host spans) are written to [--out].
   Without [--workload], every workload runs in turn, each in its own
   process. Exit codes: 0 ok, 1 a correctness check failed, 2 bad
   arguments. See benchmark/README.md. *)

module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Spec = Stramash_machine.Spec
module Node_id = Stramash_sim.Node_id
module Metrics = Stramash_sim.Metrics
module Histogram = Stramash_sim.Metrics.Histogram
module Cache_sim = Stramash_cache.Cache_sim
module Phys_mem = Stramash_mem.Phys_mem
module Interp = Stramash_isa.Interp
module Codegen = Stramash_isa.Codegen
module Obs_trace = Stramash_obs.Trace
module Json = Stramash_obs.Json
module Serve = Stramash_serve.Serve
module Slo = Stramash_serve.Slo
module W = Stramash_workloads

(* ---------- host spans ---------- *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

let tracing = ref false
let spans = ref []
let last_span = ref 0

(* [timed ~parent name f] runs [f id] and returns its value with the
   process CPU seconds it took. Traced runs keep it as a span; [f] passes
   [id] as the parent of its own spans. *)
let timed ?(parent = 0) name f =
  incr last_span;
  let id = !last_span in
  let start = Sys.time () in
  let x = f id in
  let stop = Sys.time () in
  if !tracing then spans := { id; parent; name; start; stop } :: !spans;
  (x, stop -. start)

(* ---------- workloads ---------- *)

type npb = { bench : string; os : Machine.os_choice; spec : Spec.t; expected : int64 }

let stramash = Machine.Stramash_kernel_os
let popcorn = Machine.Popcorn_shm

(* Full-size classes with their default parameters, as in the paper; the
   expected value is the host-computed checksum the program must store. *)
let npb os bench =
  let spec, expected =
    match bench with
    | "is" -> (W.Npb_is.spec (), W.Npb_is.expected_checksum W.Npb_is.default)
    | "cg" -> (W.Npb_cg.spec (), Int64.bits_of_float (W.Npb_cg.expected_checksum W.Npb_cg.default))
    | "mg" -> (W.Npb_mg.spec (), Int64.bits_of_float (W.Npb_mg.expected_checksum W.Npb_mg.default))
    | "ft" -> (W.Npb_ft.spec (), Int64.bits_of_float (W.Npb_ft.expected_checksum W.Npb_ft.default))
    | "ep" -> (W.Npb_ep.spec (), W.Npb_ep.expected_checksum W.Npb_ep.default)
    | _ -> invalid_arg bench
  in
  { bench; os; spec; expected }

(* Why each workload exists is recorded in benchmark/README.md: npb-loop is
   cache-resident and interpreter-bound, npb-mem overflows the modelled L3
   and barely messages, npb-msg runs the same programs under the
   message-passing kernel, and serve-zipf runs no interpreter at all. *)
let workloads =
  [
    ("npb-loop", `Npb (fun () -> List.map (npb stramash) [ "mg"; "ft"; "ep" ]));
    ("npb-mem", `Npb (fun () -> List.map (npb stramash) [ "is"; "cg" ]));
    ("npb-msg", `Npb (fun () -> List.map (npb popcorn) [ "is"; "cg" ]));
    ("serve-zipf", `Serve);
  ]

let serve_keys = 1 lsl 20
let serve_rate = 10_000.0
let serve_requests = 20_000

let serve_config ~seed os ~rate ~requests =
  { Serve.default with os; keys = serve_keys; theta = 0.99; rate; requests; seed = Int64.of_int seed }

(* Serve's latency histograms end at 2000 us and put anything slower in
   their last bucket, so no percentile at or above this is a measurement.
   A percentile below it stays exact even when some samples overflow. *)
let ceiling_us = 2000.0

let pct h p = Slo.cycles_to_us (Histogram.percentile h p)

(* ---------- one cell ---------- *)

type cell = {
  label : string;
  fingerprint : string;  (** simulated outputs that every rep must repeat *)
  sim_cycles : int;
  attempted : int;
  failed : int;
  setup : float;
  run : float;
  verify : float;
  teardown : float;
  result : [ `Npb of Runner.result | `Serve of Serve.outcome ];
}

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

(* [observe] sees the loaded machine before the run and returns what to do
   after verification (the traced rep's replays). *)
let run_npb ~seed ~parent ?(observe = fun _ _ _ -> ()) c =
  let label = c.bench ^ "/" ^ Machine.os_choice_name c.os in
  fst
  @@ timed ~parent ("cell " ^ label) (fun cell ->
         let (m, proc, thread), setup =
           timed ~parent:cell "setup" (fun _ ->
               let m = Machine.create { Machine.default_config with os = c.os; seed = Int64.of_int seed } in
               let proc, thread = Machine.load m c.spec in
               (m, proc, thread))
         in
         let after_run = observe m in
         let r, run = timed ~parent:cell "run" (fun _ -> Runner.run m proc thread c.spec) in
         let ok, verify =
           timed ~parent:cell "verify" (fun _ ->
               Machine.read_user m ~proc ~node:Node_id.X86 ~vaddr:W.Npb_common.checksum_vaddr ~width:8
               = Some c.expected)
         in
         if not ok then Printf.eprintf "FAIL %s: checksum differs from the host reference\n%!" label;
         after_run cell c;
         let (), teardown = timed ~parent:cell "teardown" (fun _ -> Machine.exit_process m proc) in
         {
           label;
           fingerprint =
             Printf.sprintf "wall=%d icounts=%s messages=%d" r.Runner.wall_cycles
               (ints r.Runner.node_icounts) r.Runner.messages;
           sim_cycles = r.Runner.wall_cycles;
           attempted = 1;
           failed = (if ok then 0 else 1);
           setup;
           run;
           verify;
           teardown;
           result = `Npb r;
         })

let counter o name = Option.value ~default:0 (List.assoc_opt name o.Serve.o_counters)

(* Serve.run builds its own machine; the set-up it performs (create, then
   load the 64 MiB store) is timed on its own first. *)
let run_serve ~seed ~parent os =
  let label = "serve/" ^ Machine.os_choice_name os in
  fst
  @@ timed ~parent ("cell " ^ label) (fun cell ->
         let (m, proc), setup =
           timed ~parent:cell "setup" (fun _ ->
               let m = Machine.create { Machine.default_config with os; seed = Int64.of_int seed } in
               let proc, _ = Machine.load m (Stramash_serve.Workload.store_spec ~keys:serve_keys) in
               (m, proc))
         in
         let (), teardown = timed ~parent:cell "teardown" (fun _ -> Machine.exit_process m proc) in
         let o, run =
           timed ~parent:cell "run" (fun _ ->
               Serve.run (serve_config ~seed os ~rate:serve_rate ~requests:serve_requests))
         in
         let (completed, in_range, overflowed), verify =
           timed ~parent:cell "verify" (fun _ ->
               let all = o.Serve.o_all in
               ( Histogram.count all,
                 pct all 0.99 < ceiling_us,
                 Slo.cycles_to_us (Histogram.max_value all) >= ceiling_us ))
         in
         if completed <> serve_requests then
           Printf.eprintf "FAIL %s: %d of %d requests completed\n%!" label completed serve_requests;
         if not in_range then
           Printf.eprintf "FAIL %s: p99 reached the %.0f us histogram ceiling at %.0f req/s\n%!"
             label ceiling_us serve_rate
         else if overflowed then
           Printf.eprintf "note %s: the slowest requests passed the %.0f us histogram ceiling\n%!"
             label ceiling_us;
         let all = o.Serve.o_all in
         {
           label;
           fingerprint =
             Printf.sprintf "n=%d p50=%h p99=%h wall=%d" completed (Histogram.percentile all 0.5)
               (Histogram.percentile all 0.99) o.Serve.o_wall;
           (* cycles the server spent working: its clock minus the time it
              sat idle waiting for the next arrival *)
           sim_cycles = o.Serve.o_wall - counter o "serve.idle_cycles";
           attempted = serve_requests;
           failed = (serve_requests - completed) + if in_range then 0 else completed;
           setup;
           run;
           verify;
           teardown;
           result = `Serve o;
         })

(* ---------- reps ---------- *)

type rep = { cells : cell list; setup_s : float; run_s : float; verify_s : float; teardown_s : float }

let rep_of cells =
  let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 cells in
  {
    cells;
    setup_s = sum (fun c -> c.setup);
    run_s = sum (fun c -> c.run);
    verify_s = sum (fun c -> c.verify);
    teardown_s = sum (fun c -> c.teardown);
  }

(* Each cell's machine is collected before the next cell starts, so peak
   memory is that of one cell rather than of however many the GC has yet
   to free. *)
let run_rep ~seed ~parent ?observe name kind =
  let collected c =
    Gc.full_major ();
    c
  in
  fst
  @@ timed ~parent ("rep " ^ name) (fun rep ->
         rep_of
           (match kind with
           | `Npb cells -> List.map (fun c -> collected (run_npb ~seed ~parent:rep ?observe c)) cells
           | `Serve -> List.map (fun os -> collected (run_serve ~seed ~parent:rep os)) [ stramash; popcorn ]))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Reps repeat until [seconds] of wall time have passed (at least one),
   so a run lasts as long on every commit. *)
let measure ~seed ~seconds ~parent kind =
  let t0 = Unix.gettimeofday () in
  let rec go i acc =
    if i > 1 && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else go (i + 1) (run_rep ~seed ~parent (string_of_int i) kind :: acc)
  in
  go 1 []

(* Every rep must repeat the first rep's simulated outputs; a cell that
   does not counts as failed. *)
let fingerprint_failures reps =
  match reps with
  | [] -> 0
  | first :: rest ->
      List.fold_left
        (fun acc r ->
          List.fold_left2
            (fun acc c0 c ->
              if c.fingerprint = c0.fingerprint then acc
              else begin
                Printf.eprintf "FAIL %s: simulated outputs differ between reps (%s vs %s)\n%!"
                  c.label c0.fingerprint c.fingerprint;
                acc + c.attempted
              end)
            acc first.cells r.cells)
        0 rest

(* ---------- metrics ---------- *)

type value = Int of int | Float of float | Above_range | Below_range

type metric = { name : string; value : value; unit_ : string }

(* metric constructors, kept short for the tables below *)
let m name unit_ value = { name; value; unit_ }
let f name unit_ x = m name unit_ (Float x)
let i name unit_ n = m name unit_ (Int n)
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    let line = input_line ic in
    match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
    | Some kb -> float_of_int kb /. 1024.0
    | None -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let end_to_end reps =
  let first = List.hd reps in
  [
    f "host_s" "s" (median (List.map (fun r -> r.run_s) reps));
    f "setup_s" "s" (median (List.map (fun r -> r.setup_s) reps));
    f "peak_rss_mb" "MiB" (peak_rss_mb ());
    f "sim_mcycles" "Mcycles"
      (float_of_int (List.fold_left (fun acc c -> acc + c.sim_cycles) 0 first.cells) /. 1e6);
  ]

(* ---------- traced rep: layer replays ---------- *)

(* The first [replay_cap] cache accesses of each traced cell, packed as
   paddr, node and kind, replayed into fresh single-layer instances. *)
let replay_cap = 1 lsl 22

let kind_code = function Cache_sim.Ifetch -> 0 | Cache_sim.Load -> 1 | Cache_sim.Store -> 2
let kind_of_code = function 0 -> Cache_sim.Ifetch | 1 -> Cache_sim.Load | _ -> Cache_sim.Store

type replays = {
  mutable isa_s : float;
  mutable isa_instr : int;
  mutable cache_s : float;
  mutable cache_n : int;
  mutable mem_s : float;
  mutable mem_n : int;
  mutable isa_failed : int;
}

(* The workload's x86 image through the bare interpreter: flat page-map
   memory, no cache, no TLB, no kernel, migration points ignored. Returns
   the instructions executed and the checksum the program stored. *)
let replay_isa (spec : Spec.t) =
  let pages = Hashtbl.create 4096 in
  let page vaddr =
    let p = vaddr lsr 12 in
    match Hashtbl.find_opt pages p with
    | Some b -> b
    | None ->
        let b = Bytes.make 4096 '\000' in
        Hashtbl.add pages p b;
        b
  in
  let load width vaddr =
    let b = page vaddr and o = vaddr land 4095 in
    match width with
    | 8 -> Bytes.get_int64_le b o
    | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le b o)) 0xFFFF_FFFFL
    | 2 -> Int64.of_int (Bytes.get_uint16_le b o)
    | _ -> Int64.of_int (Bytes.get_uint8 b o)
  in
  let store width vaddr v =
    let b = page vaddr and o = vaddr land 4095 in
    match width with
    | 8 -> Bytes.set_int64_le b o v
    | 4 -> Bytes.set_int32_le b o (Int64.to_int32 v)
    | 2 -> Bytes.set_uint16_le b o (Int64.to_int v land 0xFFFF)
    | _ -> Bytes.set_uint8 b o (Int64.to_int v land 0xFF)
  in
  List.iter
    (fun (seg : Spec.segment) ->
      let put width values to_int64 =
        Array.iteri (fun k v -> store width (seg.Spec.base + (width * k)) (to_int64 v)) values
      in
      match seg.Spec.init with
      | Spec.Zeroed -> ()
      | Spec.F64s vs -> put 8 vs Int64.bits_of_float
      | Spec.I64s vs -> put 8 vs Fun.id
      | Spec.I32s vs -> put 4 vs Int64.of_int32)
    spec.Spec.segments;
  let cpu = Interp.create (Codegen.lower ~isa:Node_id.X86 spec.Spec.mir) in
  let memio = { Interp.load; store; fetch = ignore } in
  let rec go () =
    match Interp.run cpu memio ~fuel:1_000_000_000 with
    | Interp.Halted -> ()
    | Interp.Out_of_fuel | Interp.Migrate _ | Interp.Syscall _ -> go ()
  in
  go ();
  (Interp.icount cpu, load 8 W.Npb_common.checksum_vaddr)

(* Installs the recording probe on each traced cell's machine; after the
   run, times the three replays as spans under the cell. *)
let observe_layers replays =
  let buf = lazy (Array.make replay_cap 0) in
  fun machine ->
    let buf = Lazy.force buf in
    let n = ref 0 in
    Cache_sim.add_probe (Machine.cache machine) (fun node kind paddr ->
        if !n < replay_cap then begin
          buf.(!n) <- (paddr lsl 3) lor (Node_id.index node lsl 2) lor kind_code kind;
          incr n
        end);
    fun cell c ->
      let recorded = !n in
      let (instr, sum), isa_s = timed ~parent:cell "replay isa" (fun _ -> replay_isa c.spec) in
      if sum <> c.expected then begin
        Printf.eprintf "FAIL %s: the bare-interpreter replay stored a different checksum\n%!" c.bench;
        replays.isa_failed <- replays.isa_failed + 1
      end;
      replays.isa_s <- replays.isa_s +. isa_s;
      replays.isa_instr <- replays.isa_instr + instr;
      let (), cache_s =
        timed ~parent:cell "replay cache" (fun _ ->
            let fresh = Cache_sim.create (Cache_sim.config (Machine.cache machine)) in
            for k = 0 to recorded - 1 do
              let e = buf.(k) in
              ignore
                (Cache_sim.access fresh
                   ~node:(Node_id.of_index ((e lsr 2) land 1))
                   (kind_of_code (e land 3)) ~paddr:(e lsr 3))
            done)
      in
      replays.cache_s <- replays.cache_s +. cache_s;
      replays.cache_n <- replays.cache_n + recorded;
      (* keep only the data accesses' word addresses, then time the reads *)
      let data = ref 0 in
      for k = 0 to recorded - 1 do
        let e = buf.(k) in
        if e land 3 <> 0 then begin
          buf.(!data) <- (e lsr 3) land lnot 7;
          incr data
        end
      done;
      let phys = (Machine.env machine).Stramash_kernel.Env.phys in
      let (), mem_s =
        timed ~parent:cell "replay mem" (fun _ ->
            for k = 0 to !data - 1 do
              ignore (Phys_mem.read_u64 phys buf.(k))
            done)
      in
      replays.mem_s <- replays.mem_s +. mem_s;
      replays.mem_n <- replays.mem_n + !data

(* ---------- capacity search (traced runs) ---------- *)

let capacity_lo = 1_000.0
let capacity_hi = 256_000.0
let capacity_limit_us = 1000.0

(* Highest offered rate whose p99 stays within [capacity_limit_us] with
   every request completed, by geometric bisection over [capacity_lo,
   capacity_hi] down to a 2% step. Each probe plays 0.25 s of simulated
   arrivals, and at least 1000 requests so that its p99 has ten samples
   beyond it. An answer at either end of the range is out of range. *)
let capacity ~seed ~parent os =
  fst
  @@ timed ~parent ("capacity " ^ Machine.os_choice_name os) (fun search ->
         let passes rate =
           fst
           @@ timed ~parent:search (Printf.sprintf "probe %.0f" rate) (fun _ ->
                  let requests = max 1000 (int_of_float (rate *. 0.25)) in
                  let o = Serve.run (serve_config ~seed os ~rate ~requests) in
                  Histogram.count o.Serve.o_all = requests
                  && pct o.Serve.o_all 0.99 <= capacity_limit_us)
         in
         let rec bisect lo hi =
           if hi /. lo <= 1.02 then lo
           else
             let mid = sqrt (lo *. hi) in
             if passes mid then bisect mid hi else bisect lo mid
         in
         if not (passes capacity_lo) then Below_range
         else
           let c = bisect capacity_lo capacity_hi in
           if c *. 1.02 >= capacity_hi then Above_range else Float c)

(* ---------- per-layer metrics ---------- *)

let sum_ints f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let sum_array a = Array.fold_left ( + ) 0 a

(* Counters the runner returns, summed over a rep's NPB cells (none for
   serve-zipf, whose machine Serve.run keeps to itself). *)
let runner_results rep =
  List.filter_map (fun c -> match c.result with `Npb r -> Some r | `Serve _ -> None) rep.cells

let serve_outcomes rep =
  List.filter_map (fun c -> match c.result with `Serve o -> Some o | `Npb _ -> None) rep.cells

let cache_stat results suffix =
  sum_ints
    (fun r ->
      Metrics.fold r.Runner.cache ~init:0 ~f:(fun acc k v ->
          if String.ends_with ~suffix:("." ^ suffix) k then acc + v else acc))
    results

let hit_frac results level =
  ratio (cache_stat results (level ^ "_hits")) (cache_stat results (level ^ "_accesses"))

let us_or_above_range x = if x >= ceiling_us then Above_range else Float x

let per_layer ~reps ~traced ~tracer ~replays ~capacities =
  let first = List.hd reps in
  let results = runner_results first in
  let outcomes = serve_outcomes first in
  let median_of phase = median (List.map phase reps) in
  let run_s = median_of (fun r -> r.run_s) in
  let rsum f = sum_ints (fun r -> sum_array (f r)) results in
  let instructions = sum_ints (fun r -> r.Runner.instructions) results in
  let accesses = cache_stat results "mem_accesses" in
  let data_accesses = cache_stat results "l1d_accesses" in
  let per n s = if n = 0 then 0.0 else s /. float_of_int n in
  let isa_ns = 1e9 *. per replays.isa_instr replays.isa_s in
  let cache_ns = 1e9 *. per replays.cache_n replays.cache_s in
  let mem_ns = 1e9 *. per replays.mem_n replays.mem_s in
  let share ns n = ns *. 1e-9 *. float_of_int n /. run_s in
  let isa_share = share isa_ns instructions in
  let cache_share = share cache_ns accesses in
  let mem_share = share mem_ns data_accesses in
  let rows = Obs_trace.attribution tracer in
  let self subsys =
    List.fold_left (fun acc r -> if r.Obs_trace.subsys = subsys then acc + r.Obs_trace.self_cycles else acc) 0 rows
  in
  let count ?op subsys =
    List.fold_left
      (fun acc r ->
        if r.Obs_trace.subsys = subsys && (op = None || op = Some r.Obs_trace.op) then
          acc + r.Obs_trace.count
        else acc)
      0 rows
  in
  let serve_sum name = sum_ints (fun o -> counter o name) outcomes in
  let requests = serve_sum "serve.requests" in
  let tail os p =
    match List.find_opt (fun o -> o.Serve.o_os = Machine.os_choice_name os) outcomes with
    | Some o -> us_or_above_range (pct o.Serve.o_all p)
    | None -> Float 0.0
  in
  let capacity os = Option.value ~default:(Float 0.0) (List.assoc_opt os capacities) in
  let l0_hits = rsum (fun r -> r.Runner.ext.Runner.l0_hits) in
  let l0_misses = rsum (fun r -> r.Runner.ext.Runner.l0_misses) in
  let idle = rsum (fun r -> r.Runner.node_idle) + serve_sum "serve.idle_cycles" in
  let os_cycles =
    sum_ints
      (fun r ->
        sum_array r.Runner.node_cycles - sum_array r.Runner.node_icounts
        - sum_array r.Runner.node_user_stalls - sum_array r.Runner.node_idle)
      results
  in
  let tlb_misses = rsum (fun r -> r.Runner.tlb_misses) in
  [
    i "isa.instructions" "count" instructions;
    f "isa.sim_mips" "Minstr/s" (if run_s > 0.0 then float_of_int instructions /. run_s /. 1e6 else 0.0);
    f "isa.replay_ns_per_instr" "ns/instr" isa_ns;
    f "isa.host_share" "frac" isa_share;
    i "cache.accesses" "count" accesses;
    f "cache.l0_hit_frac" "frac" (ratio l0_hits (l0_hits + l0_misses));
    f "cache.l1d_hit_frac" "frac" (hit_frac results "l1d");
    f "cache.l2_hit_frac" "frac" (hit_frac results "l2");
    f "cache.l3_hit_frac" "frac" (hit_frac results "l3");
    f "cache.remote_mem_frac" "frac"
      (ratio (cache_stat results "remote_mem_hits" + cache_stat results "remote_shared_mem_hits") accesses);
    i "cache.snoops" "count" (cache_stat results "snoop_data" + cache_stat results "snoop_invalidates");
    i "cache.stall_cycles" "cycles" (rsum (fun r -> r.Runner.node_user_stalls));
    f "cache.replay_ns_per_access" "ns/access" cache_ns;
    f "cache.host_share" "frac" cache_share;
    f "mem.replay_ns_per_access" "ns/access" mem_ns;
    f "mem.host_share" "frac" mem_share;
    i "kernel.tlb_misses" "count" tlb_misses;
    f "kernel.tlb_miss_per_kinstr" "count/kinstr" (1000.0 *. ratio tlb_misses instructions);
    i "kernel.walk_misses" "count" (count ~op:"walk_miss" "page_table");
    i "core.faults" "count" (count ~op:"fault" "stramash_fault");
    i "core.fault_cycles" "cycles" (self "stramash_fault");
    i "core.remote_walk_cycles" "cycles" (self "remote_walker");
    i "core.ptl_cycles" "cycles" (self "ptl");
    i "core.futex_cycles" "cycles" (self "futex");
    (* every delivered message is a traced send except the asynchronous
       DSM write-back updates, which are traced as their own event *)
    i "popcorn.messages" "count" (count ~op:"send" "msg" + count ~op:"wb_update" "dsm");
    i "popcorn.replicated_pages" "count" (sum_ints (fun r -> r.Runner.replicated_pages) results);
    i "popcorn.msg_cycles" "cycles" (self "msg");
    i "popcorn.dsm_faults" "count" (count ~op:"fault" "dsm");
    i "interconnect.wire_cycles" "cycles" (self "interconnect");
    i "interconnect.ipis" "count" (count "ipi");
    i "interconnect.blocked_cycles" "cycles"
      (sum_ints (fun node -> Obs_trace.node_blocked_cycles tracer node) Node_id.all);
    i "machine.idle_cycles" "cycles" idle;
    i "machine.os_cycles" "cycles" os_cycles;
    i "machine.migrations" "count" (sum_ints (fun r -> r.Runner.migrations) results);
    f "machine.setup_host_s" "s" (median_of (fun r -> r.setup_s));
    f "machine.run_host_s" "s" run_s;
    f "machine.teardown_host_s" "s" (median_of (fun r -> r.teardown_s));
    m "serve.p50_us.stramash" "us" (tail stramash 0.5);
    m "serve.p99_us.stramash" "us" (tail stramash 0.99);
    m "serve.p50_us.popcorn" "us" (tail popcorn 0.5);
    m "serve.p99_us.popcorn" "us" (tail popcorn 0.99);
    m "serve.capacity_rps.stramash" "req/s" (capacity stramash);
    m "serve.capacity_rps.popcorn" "req/s" (capacity popcorn);
    f "serve.queue_wait_us_mean" "us"
      (Slo.cycles_to_us (float_of_int (serve_sum "serve.queue_wait_cycles")) /. float_of_int (max 1 requests));
    f "serve.idle_frac" "frac" (ratio (serve_sum "serve.idle_cycles") (sum_ints (fun o -> o.Serve.o_wall) outcomes));
    i "serve.quanta" "count" (serve_sum "serve.quanta");
    f "serve.host_us_per_req" "us/req" (if requests = 0 then 0.0 else 1e6 *. run_s /. float_of_int requests);
    f "obs.trace_overhead_frac" "frac" ((traced.run_s /. run_s) -. 1.0);
    i "obs.events_recorded" "count" (Obs_trace.recorded tracer);
    i "obs.events_dropped" "count" (Obs_trace.dropped tracer);
    f "host.residual_share" "frac" (1.0 -. isa_share -. cache_share -. mem_share);
  ]

(* ---------- output ---------- *)

let value_string = function
  | Int n -> string_of_int n
  | Float x -> Printf.sprintf "%.12g" x
  | Above_range -> "above_range"
  | Below_range -> "below_range"

let value_json = function
  | Int n -> Json.Int n
  | Float x -> Json.Float x
  | Above_range | Below_range -> Json.Null

let metrics_json ms =
  Json.Obj
    (List.map
       (fun mt -> (mt.name, Json.Obj [ ("value", value_json mt.value); ("unit", Json.String mt.unit_) ]))
       ms)

let git_commit () =
  let read path =
    try Some (String.trim (In_channel.with_open_text path In_channel.input_all)) with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head ->
      read (Filename.concat ".git" (String.sub head 5 (String.length head - 5)))
  | head -> head

let host_stamp ~seed ~seconds ~reps =
  let gc = Gc.get () in
  Json.Obj
    [
      ("host_cores", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("git_commit", match git_commit () with Some c -> Json.String c | None -> Json.Null);
      ("clock", Json.String "Sys.time: process CPU seconds, user + system");
      ( "gc",
        Json.Obj
          [
            ("minor_heap_words", Json.Int gc.Gc.minor_heap_size);
            ("space_overhead", Json.Int gc.Gc.space_overhead);
          ] );
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("reps", Json.Int reps);
    ]

let rep_json name r =
  Json.Obj
    [
      ("rep", Json.String name);
      ("setup_s", Json.Float r.setup_s);
      ("run_s", Json.Float r.run_s);
      ("verify_s", Json.Float r.verify_s);
      ("teardown_s", Json.Float r.teardown_s);
      ( "cells",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("cell", Json.String c.label);
                   ("setup_s", Json.Float c.setup);
                   ("run_s", Json.Float c.run);
                   ("sim_cycles", Json.Int c.sim_cycles);
                   ("fingerprint", Json.String c.fingerprint);
                 ])
             r.cells) );
    ]

let span_json s =
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("parent", Json.Int s.parent);
      ("name", Json.String s.name);
      ("start_s", Json.Float s.start);
      ("dur_s", Json.Float (s.stop -. s.start));
    ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_json path json =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n')

(* ---------- one workload ---------- *)

let run_workload ~name ~kind ~seed ~seconds ~trace ~out =
  (* The interpreter's Int64 register file allocates on every write; the
     same larger minor heap as bench/main.ml keeps that churn cheap. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
  tracing := trace;
  let kind = match kind with `Npb cells -> `Npb (cells ()) | `Serve -> `Serve in
  let (reps, traced), _ =
    timed ("workload " ^ name) (fun root ->
        let reps = measure ~seed ~seconds ~parent:root kind in
        if not trace then (reps, None)
        else begin
          let tracer = Obs_trace.create () in
          let replays =
            { isa_s = 0.0; isa_instr = 0; cache_s = 0.0; cache_n = 0; mem_s = 0.0; mem_n = 0; isa_failed = 0 }
          in
          Obs_trace.install tracer;
          let traced =
            Fun.protect ~finally:Obs_trace.uninstall (fun () ->
                run_rep ~seed ~parent:root ~observe:(observe_layers replays) "traced" kind)
          in
          let capacities =
            match kind with
            | `Serve -> List.map (fun os -> (os, capacity ~seed ~parent:root os)) [ stramash; popcorn ]
            | `Npb _ -> []
          in
          (reps, Some (traced, tracer, replays, capacities))
        end)
  in
  let all_reps = reps @ Option.fold ~none:[] ~some:(fun (t, _, _, _) -> [ t ]) traced in
  let cells = List.concat_map (fun r -> r.cells) all_reps in
  let attempted, failed =
    List.fold_left (fun (a, f) c -> (a + c.attempted, f + c.failed)) (0, fingerprint_failures all_reps) cells
  in
  let metrics, attempted, failed =
    match traced with
    | None -> (end_to_end reps, attempted, failed)
    | Some (traced, tracer, replays, capacities) ->
        let out_of_range =
          List.length (List.filter (function _, Float _ -> false | _ -> true) capacities)
        in
        ( per_layer ~reps ~traced ~tracer ~replays ~capacities,
          attempted + List.length capacities,
          failed + replays.isa_failed + out_of_range )
  in
  List.iter (fun mt -> Printf.printf "%s %s %s\n" mt.name (value_string mt.value) mt.unit_) metrics;
  let out =
    Option.value out
      ~default:(Printf.sprintf "benchmark/results/%s%s.json" name (if trace then ".traced" else ""))
  in
  write_json out
    (Json.Obj
       [
         ("schema", Json.String "stramash-benchmark/1");
         ("workload", Json.String name);
         ("trace", Json.Bool trace);
         ("host", host_stamp ~seed ~seconds ~reps:(List.length reps));
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", metrics_json metrics);
         ( "samples",
           Json.List
             (List.mapi (fun k r -> rep_json (string_of_int (k + 1)) r) reps
             @ Option.fold ~none:[] ~some:(fun (t, _, _, _) -> [ rep_json "traced" t ]) traced) );
         ("spans", Json.List (List.rev_map span_json !spans));
       ]);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", metrics_json metrics);
          ]));
  if failed = 0 then 0 else 1

(* ---------- command line ---------- *)

let usage =
  "usage: main.exe [--workload npb-loop|npb-mem|npb-msg|serve-zipf] [--seed N] [--seconds S] \
   [--trace 0|1] [--out FILE]"

let () =
  let workload = ref None and seed = ref 6165221 and seconds = ref 25.0 in
  let trace = ref false and out = ref None in
  let bad msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem_assoc w workloads ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
        seed := int_of_string n;
        parse rest
    | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun s -> s > 0.0) (float_of_string_opt s) ->
        seconds := float_of_string s;
        parse rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        trace := t = "1";
        parse rest
    | "--out" :: file :: rest ->
        out := Some file;
        parse rest
    | arg :: _ -> bad ("bad argument: " ^ arg)
  in
  let args = List.tl (Array.to_list Sys.argv) in
  parse args;
  match !workload with
  | Some name ->
      exit
        (run_workload ~name ~kind:(List.assoc name workloads) ~seed:!seed ~seconds:!seconds
           ~trace:!trace ~out:!out)
  | None when !out <> None -> bad "--out needs --workload"
  | None ->
      (* each workload in its own process, one after another *)
      exit
        (List.fold_left
           (fun code (name, _) ->
             let argv = Array.of_list ((Sys.executable_name :: args) @ [ "--workload"; name ]) in
             let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
             match Unix.waitpid [] pid with _, Unix.WEXITED c -> max code c | _ -> max code 1)
           0 workloads)
