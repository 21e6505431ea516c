(* Tests for the hot-path memory pipeline: the L0 line filters, the fused
   TLB translate, and the phys page-pointer cache must be *bit- and
   cycle-identical* to the reference path. Every test here compares Fast
   (and Paranoid) against Reference, or exercises an invalidation edge the
   fast path must observe: TLB shootdown, MESI snoop, M-state downgrade,
   eviction + refill at the same way. The allocation guards pin the
   per-access path's heap traffic: cache accesses and register-only
   interpretation allocate nothing, and a page walk stays within a few
   words. *)

module Node_id = Stramash_sim.Node_id
module Rng = Stramash_sim.Rng
module Metrics = Stramash_sim.Metrics
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Latency = Stramash_mem.Latency
module Phys_mem = Stramash_mem.Phys_mem
module Config = Stramash_cache.Config
module Cache_sim = Stramash_cache.Cache_sim
module Tlb = Stramash_kernel.Tlb
module Kernel = Stramash_kernel.Kernel
module Page_table = Stramash_kernel.Page_table
module Pte = Stramash_kernel.Pte
module Mir = Stramash_isa.Mir
module B = Stramash_isa.Builder
module Codegen = Stramash_isa.Codegen
module Interp = Stramash_isa.Interp
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module W = Stramash_workloads

let checki = Alcotest.(check int)
let x86 = Node_id.X86
let arm = Node_id.Arm

let fresh mode ?(hw = Layout.Shared) () =
  let c = Cache_sim.create (Config.default hw) in
  Cache_sim.set_mode c mode;
  c

(* An access the way the runner's fused closures make it: the L0 check
   first, and [access] only when it misses. An L0 hit costs L1 latency. *)
let fused_access c ~node kind ~paddr =
  match Cache_sim.l0 c node with
  | Some l0 ->
      let way = Cache_sim.l0_way l0 kind ~line:(Addr.line_of paddr) in
      if way >= 0 then begin
        Cache_sim.l0_commit l0 kind ~way;
        (Config.latencies (Cache_sim.config c) node).Latency.l1
      end
      else Cache_sim.access c ~node kind ~paddr
  | None -> Cache_sim.access c ~node kind ~paddr

(* Drive the same access sequence through a fast-mode simulator, a
   fast-mode one driven as the runner drives it, and a reference-mode
   simulator; every returned latency must match, and so must the full
   per-node stat registries afterwards. *)
let check_lockstep ?(hw = Layout.Shared) trace =
  let fast = fresh Cache_sim.Fast ~hw () in
  let fused = fresh Cache_sim.Fast ~hw () in
  let ref_ = fresh Cache_sim.Reference ~hw () in
  List.iteri
    (fun i (node, kind, paddr) ->
      let lf = Cache_sim.access fast ~node kind ~paddr in
      let lu = fused_access fused ~node kind ~paddr in
      let lr = Cache_sim.access ref_ ~node kind ~paddr in
      if lf <> lr || lu <> lr then
        Alcotest.failf "access %d (%s paddr=0x%x): fast=%d fused=%d reference=%d" i
          (Node_id.to_string node) paddr lf lu lr)
    trace;
  List.iter
    (fun c ->
      Alcotest.(check (list (pair string int)))
        "stat registries identical"
        (Metrics.to_assoc (Cache_sim.stats ref_))
        (Metrics.to_assoc (Cache_sim.stats c));
      match Cache_sim.check_consistency c with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "fast-mode invariants: %s" msg)
    [ fast; fused ];
  List.iter
    (fun name ->
      List.iter
        (fun node ->
          checki ("fused " ^ name) (Cache_sim.stat fast node name) (Cache_sim.stat fused node name))
        Node_id.all)
    [ "l0_hits"; "l0_misses" ];
  fast

let a = 4096 * 17 (* x86-private page *)

let test_l0_hit_counted () =
  let fast =
    check_lockstep
      [ (x86, Cache_sim.Load, a); (x86, Cache_sim.Load, a); (x86, Cache_sim.Load, a) ]
  in
  (* the filter fills on a slow-path L1 hit (the first repeat), so the
     second repeat is the first to answer from L0 *)
  checki "l0 hits" 1 (Cache_sim.stat fast x86 "l0_hits");
  checki "l0 misses" 2 (Cache_sim.stat fast x86 "l0_misses")

let test_snoop_invalidation_seen () =
  (* Peer store invalidates the line while it sits in x86's L0: the next
     x86 access must re-miss exactly like the reference. *)
  ignore
    (check_lockstep
       [
         (x86, Cache_sim.Load, a);
         (x86, Cache_sim.Load, a);
         (arm, Cache_sim.Store, a);
         (x86, Cache_sim.Load, a);
         (x86, Cache_sim.Load, a);
       ])

let test_m_downgrade_store_upgrade () =
  (* A store L1-hit leaves the line M and sets the L0 store_m bit. A peer
     read downgrades M->S behind the filter's back; the next local store
     must pay the upgrade, not take the zero-cost M short-circuit. *)
  ignore
    (check_lockstep
       [
         (x86, Cache_sim.Store, a);
         (x86, Cache_sim.Store, a);
         (arm, Cache_sim.Load, a);
         (x86, Cache_sim.Store, a);
         (arm, Cache_sim.Load, a);
         (x86, Cache_sim.Store, a);
       ])

let test_eviction_refill_same_way () =
  (* Stream enough conflicting lines through one set to evict [a] and
     refill its way with another line; a stale L0 entry pointing at that
     way must not validate. *)
  let cfg = Config.default Layout.Shared in
  let sets = cfg.Config.l1d.Config.size / 64 / cfg.Config.l1d.Config.ways in
  let stride = sets * 64 in
  let conflicting = List.init 16 (fun i -> (x86, Cache_sim.Load, a + (i + 1) * stride)) in
  ignore
    (check_lockstep
       ((x86, Cache_sim.Load, a) :: (x86, Cache_sim.Load, a) :: conflicting
       @ [ (x86, Cache_sim.Load, a) ]))

(* The fused path may skip [access] only while [access] would itself take
   the L0 path and no probe is waiting to see the access. *)
let test_l0_handle_only_when_authoritative () =
  let has_l0 c = Option.is_some (Cache_sim.l0 c x86) in
  Alcotest.(check bool) "fast" true (has_l0 (fresh Cache_sim.Fast ()));
  Alcotest.(check bool) "reference" false (has_l0 (fresh Cache_sim.Reference ()));
  Alcotest.(check bool) "paranoid" false (has_l0 (fresh Cache_sim.Paranoid ()));
  let probed = fresh Cache_sim.Fast () in
  Cache_sim.add_probe probed (fun _ _ _ -> ());
  Alcotest.(check bool) "fast with a probe" false (has_l0 probed);
  Cache_sim.set_probe probed None;
  Alcotest.(check bool) "fast once the probe is removed" true (has_l0 probed)

let prop_mode_equivalence =
  QCheck.Test.make
    ~name:"fast and reference modes are cycle- and stat-identical on random traces" ~count:20
    QCheck.(pair (int_range 0 2) small_int)
    (fun (model_idx, seed) ->
      let hw = List.nth Layout.all_hw_models model_idx in
      let rng = Rng.create ~seed:(Int64.of_int (seed + 11)) in
      let trace =
        List.init 8_000 (fun _ ->
            let node = if Rng.bool rng then x86 else arm in
            let kind =
              match Rng.int rng 4 with
              | 0 -> Cache_sim.Ifetch
              | 1 | 2 -> Cache_sim.Load
              | _ -> Cache_sim.Store
            in
            (* concentrated addresses: repeats (L0 hits), evictions, sharing *)
            let paddr = (4096 * Rng.int rng 96) + (64 * Rng.int rng 64) in
            (node, kind, paddr))
      in
      ignore (check_lockstep ~hw trace);
      true)

let prop_paranoid_never_diverges =
  QCheck.Test.make ~name:"paranoid mode survives random traces without divergence" ~count:15
    QCheck.(pair (int_range 0 2) small_int)
    (fun (model_idx, seed) ->
      let hw = List.nth Layout.all_hw_models model_idx in
      let c = fresh Cache_sim.Paranoid ~hw () in
      let rng = Rng.create ~seed:(Int64.of_int (seed + 3)) in
      for _ = 1 to 8_000 do
        let node = if Rng.bool rng then x86 else arm in
        let kind =
          match Rng.int rng 4 with
          | 0 -> Cache_sim.Ifetch
          | 1 | 2 -> Cache_sim.Load
          | _ -> Cache_sim.Store
        in
        let paddr = (4096 * Rng.int rng 96) + (64 * Rng.int rng 64) in
        ignore (Cache_sim.access c ~node kind ~paddr)
      done;
      Cache_sim.check_consistency c = Ok ())

(* ---------- fused TLB ---------- *)

let test_translate_matches_lookup () =
  let t = Tlb.create () in
  Tlb.insert t ~asid:1 ~vpage:42 { Tlb.frame = 7; writable = false };
  checki "read hit returns frame" 7 (Tlb.translate t ~asid:1 ~vpage:42 ~write:false);
  (* a write against a read-only entry is a *hit* (the reference counted it
     via lookup) that the caller must resolve with a walk *)
  checki "write on read-only entry" Tlb.not_writable (Tlb.translate t ~asid:1 ~vpage:42 ~write:true);
  checki "wrong asid misses" Tlb.miss (Tlb.translate t ~asid:2 ~vpage:42 ~write:false);
  checki "hits counted" 2 (Tlb.hits t);
  checki "misses counted" 1 (Tlb.misses t)

let test_translate_sees_shootdown () =
  let t = Tlb.create () in
  Tlb.insert t ~asid:1 ~vpage:42 { Tlb.frame = 7; writable = true };
  checki "hit before shootdown" 7 (Tlb.translate t ~asid:1 ~vpage:42 ~write:true);
  Tlb.flush_page t ~vpage:42;
  checki "miss after shootdown" Tlb.miss (Tlb.translate t ~asid:1 ~vpage:42 ~write:true);
  Tlb.insert t ~asid:1 ~vpage:42 { Tlb.frame = 9; writable = true };
  Tlb.flush_all t;
  checki "miss after full flush" Tlb.miss (Tlb.translate t ~asid:1 ~vpage:42 ~write:false)

let prop_translate_equals_lookup =
  QCheck.Test.make ~name:"Tlb.translate agrees with Tlb.lookup on random op streams" ~count:30
    QCheck.small_int (fun seed ->
      let a_ = Tlb.create () and b = Tlb.create () and c = Tlb.create () in
      let rng = Rng.create ~seed:(Int64.of_int (seed + 5)) in
      for _ = 1 to 2_000 do
        let asid = Rng.int rng 3 and vpage = Rng.int rng 200 in
        match Rng.int rng 6 with
        | 0 ->
            let e = { Tlb.frame = Rng.int rng 1000; writable = Rng.bool rng } in
            List.iter (fun t -> Tlb.insert t ~asid ~vpage e) [ a_; b; c ]
        | 1 -> List.iter (fun t -> Tlb.flush_page t ~vpage) [ a_; b; c ]
        | _ ->
            let write = Rng.bool rng in
            let via_lookup =
              match Tlb.lookup a_ ~asid ~vpage with
              | Some e when (not write) || e.Tlb.writable -> e.Tlb.frame
              | Some _ -> Tlb.not_writable
              | None -> Tlb.miss
            in
            let fused = Tlb.translate b ~asid ~vpage ~write in
            (* as the runner's fused closures use it: a probe hit counted
               by hand, anything else through [translate] *)
            let via_probe =
              let frame = Tlb.probe c ~asid ~vpage ~write in
              if frame >= 0 then begin
                Tlb.count_hit c;
                frame
              end
              else Tlb.translate c ~asid ~vpage ~write
            in
            if via_lookup <> fused || via_lookup <> via_probe then
              QCheck.Test.fail_reportf
                "asid=%d vpage=%d write=%b: lookup=%d translate=%d probe=%d" asid vpage write
                via_lookup fused via_probe
      done;
      List.for_all (fun t -> Tlb.hits t = Tlb.hits a_ && Tlb.misses t = Tlb.misses a_) [ b; c ])

(* ---------- phys page-pointer cache ---------- *)

let prop_phys_u64_equals_generic =
  QCheck.Test.make ~name:"width-specialised phys accessors match the generic path" ~count:30
    QCheck.small_int (fun seed ->
      let p = Phys_mem.create () and q = Phys_mem.create () in
      let rng = Rng.create ~seed:(Int64.of_int (seed + 9)) in
      for _ = 1 to 2_000 do
        (* aliased frames: exercise cache-slot conflicts (slot = frame mod slots) *)
        let a_ = (Rng.int rng 2048 * Addr.page_size) + (8 * Rng.int rng 512) in
        let v = Rng.next_int64 rng in
        if Rng.bool rng then begin
          Phys_mem.write_u64 p a_ v;
          Phys_mem.write q a_ ~width:8 v
        end
        else if Phys_mem.read_u64 p a_ <> Phys_mem.read q a_ ~width:8 then
          QCheck.Test.fail_reportf "read mismatch at 0x%x" a_
      done;
      Phys_mem.self_check p = Ok ())

(* ---------- allocation guards ---------- *)

(* Minor-heap words [f] allocates, net of the measurement's own cost. *)
let minor_words_of f =
  let words g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  let overhead = words ignore in
  int_of_float (words f -. overhead)

(* On every hardware model: Fully-Shared takes the shared-L3 fill and
   back-invalidation paths the private-L3 models never reach. *)
let test_cache_access_allocates_nothing () =
  List.iter
    (fun hw ->
      let c = fresh Cache_sim.Fast ~hw () in
      (* both nodes stride across 4 MiB, far past the modelled L3: fills,
         evictions, write-backs, snoops and invalidations *)
      let stream () =
        for i = 0 to 99_999 do
          let node = if i land 1 = 0 then x86 else arm in
          let kind = if i land 2 = 0 then Cache_sim.Load else Cache_sim.Store in
          let paddr = i lsr 1 * (64 * 33) land ((4 lsl 20) - 1) in
          ignore (Cache_sim.access c ~node kind ~paddr)
        done
      in
      checki
        (Layout.hw_model_to_string hw ^ ": words allocated by 10^5 accesses")
        0 (minor_words_of stream))
    Layout.all_hw_models

let test_interp_registers_allocate_nothing () =
  let b = B.create () in
  let acc = B.immi b 0 in
  let f = B.fimm b 1.5 in
  let g = B.fimm b 0.0 in
  B.for_up_const b ~lo:0 ~hi:20_000 (fun i ->
      let x = B.mul b i (B.immi b 3) in
      B.add_to b acc acc (B.shri b x 1);
      let fi = B.f_of_int b i in
      B.fadd_to b g g (B.fdiv b (B.fmul b fi f) f);
      let back = B.fresh b in
      B.emit b (Mir.Int_of_f (back, g));
      B.add_to b acc acc (B.remi b back 7));
  let mir = B.finish b in
  List.iter
    (fun isa ->
      let prog = Codegen.lower ~isa mir in
      let memio = { Interp.load = (fun _ _ -> 0L); store = (fun _ _ _ -> ()); fetch = ignore } in
      let cpu = Interp.create prog in
      let words =
        minor_words_of (fun () ->
            match Interp.run cpu memio ~fuel:max_int with
            | Interp.Halted -> ()
            | Interp.Out_of_fuel | Interp.Migrate _ | Interp.Syscall _ ->
                Alcotest.fail "loop did not halt")
      in
      Alcotest.(check bool)
        (Node_id.to_string isa ^ " ran the loop")
        true
        (Interp.icount cpu > 200_000);
      checki (Node_id.to_string isa ^ " words allocated by the interpreter") 0 words)
    Node_id.all

let test_page_walk_allocation_bounded () =
  let phys = Phys_mem.create () in
  let kernel = Kernel.boot ~node:x86 ~phys in
  let io =
    {
      Page_table.phys;
      charge_read = ignore;
      charge_write = ignore;
      alloc_table = (fun () -> Kernel.alloc_table_page kernel);
    }
  in
  let pt = Page_table.create ~isa:x86 io in
  let vaddr = 0x10000000 in
  Page_table.map pt io ~vaddr ~frame:7 Pte.default_flags;
  checki "translates to the mapped frame" 7
    (Page_table.leaf_frame (Page_table.translate pt io ~vaddr ~write:true));
  let walks = 1_000 in
  let words =
    minor_words_of (fun () ->
        for _ = 1 to walks do
          ignore (Page_table.translate pt io ~vaddr ~write:false)
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d words per walk <= 16" (words / walks))
    true
    (words <= 16 * walks)

(* ---------- whole-machine equivalence ---------- *)

let result_fingerprint (r : Runner.result) =
  ( ( r.Runner.wall_cycles,
      Array.to_list r.Runner.node_cycles,
      Array.to_list r.Runner.node_icounts,
      r.Runner.instructions,
      Array.to_list r.Runner.tlb_misses ),
    ( r.Runner.migrations,
      r.Runner.messages,
      r.Runner.replicated_pages,
      Array.to_list r.Runner.node_user_stalls,
      Array.to_list r.Runner.node_idle,
      r.Runner.phase_marks ) )

let npb_small = Stramash_harness.Npb_experiments.benchmarks ~small:true

let run_mode ~os ~cache_mode (_, spec) =
  let machine = Machine.create { Machine.default_config with os; cache_mode } in
  let proc, thread = Machine.load machine spec in
  Runner.run machine proc thread spec

let test_npb_fast_equals_reference () =
  List.iter
    (fun ((name, _) as bench) ->
      List.iter
        (fun os ->
          let fast = run_mode ~os ~cache_mode:Cache_sim.Fast bench in
          let ref_ = run_mode ~os ~cache_mode:Cache_sim.Reference bench in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s result fingerprints equal" name (Machine.os_choice_name os))
            true
            (result_fingerprint fast = result_fingerprint ref_);
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s/%s cache registries equal" name (Machine.os_choice_name os))
            (Metrics.to_assoc ref_.Runner.cache)
            (Metrics.to_assoc fast.Runner.cache);
          (* the fast run actually took the fast path *)
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s fast run used the L0 filter" name (Machine.os_choice_name os))
            true
            (Array.fold_left ( + ) 0 fast.Runner.ext.Runner.l0_hits > 0);
          checki
            (Printf.sprintf "%s/%s reference run has no L0 traffic" name
               (Machine.os_choice_name os))
            0
            (Array.fold_left ( + ) 0 ref_.Runner.ext.Runner.l0_hits
            + Array.fold_left ( + ) 0 ref_.Runner.ext.Runner.l0_misses))
        [ Machine.Vanilla; Machine.Stramash_kernel_os; Machine.Popcorn_shm ])
    npb_small

let test_npb_paranoid_clean () =
  (* Paranoid cross-checks every access against the reference engine and
     audits invariants at quantum boundaries; any divergence raises. The
     migrating Stramash config also covers page replication + shootdown
     invalidation under the filters. *)
  List.iter
    (fun ((name, _) as bench) ->
      let par = run_mode ~os:Machine.Stramash_kernel_os ~cache_mode:Cache_sim.Paranoid bench in
      let ref_ = run_mode ~os:Machine.Stramash_kernel_os ~cache_mode:Cache_sim.Reference bench in
      Alcotest.(check bool)
        (name ^ " paranoid matches reference")
        true
        (result_fingerprint par = result_fingerprint ref_))
    [ List.hd npb_small ]

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mode_equivalence;
      prop_paranoid_never_diverges;
      prop_translate_equals_lookup;
      prop_phys_u64_equals_generic;
    ]

let () =
  Alcotest.run "fastpath"
    [
      ( "l0",
        [
          Alcotest.test_case "hit counted" `Quick test_l0_hit_counted;
          Alcotest.test_case "snoop invalidation" `Quick test_snoop_invalidation_seen;
          Alcotest.test_case "M downgrade upgrade cost" `Quick test_m_downgrade_store_upgrade;
          Alcotest.test_case "eviction refill same way" `Quick test_eviction_refill_same_way;
          Alcotest.test_case "handle only when authoritative" `Quick
            test_l0_handle_only_when_authoritative;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "translate matches lookup" `Quick test_translate_matches_lookup;
          Alcotest.test_case "shootdown" `Quick test_translate_sees_shootdown;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "cache access" `Quick test_cache_access_allocates_nothing;
          Alcotest.test_case "interpreter registers" `Quick
            test_interp_registers_allocate_nothing;
          Alcotest.test_case "page walk" `Quick test_page_walk_allocation_bounded;
        ] );
      ( "machine",
        [
          Alcotest.test_case "npb fast = reference" `Slow test_npb_fast_equals_reference;
          Alcotest.test_case "npb paranoid clean" `Slow test_npb_paranoid_clean;
        ] );
      ("properties", qsuite);
    ]
