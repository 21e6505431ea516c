(* Tests for the cache simulator: hierarchy behaviour, MESI coherence with
   CXL overheads, locality classification, write-backs, and agreement with
   the Ruby-style reference model. *)

module Node_id = Stramash_sim.Node_id
module Rng = Stramash_sim.Rng
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Latency = Stramash_mem.Latency
module Config = Stramash_cache.Config
module Level = Stramash_cache.Level
module Mesi = Stramash_cache.Mesi
module Cxl = Stramash_cache.Cxl
module Cache_sim = Stramash_cache.Cache_sim
module Ruby_ref = Stramash_cache.Ruby_ref
module Trace = Stramash_cache.Trace

let checki = Alcotest.(check int)
let x86 = Node_id.X86
let arm = Node_id.Arm

let fresh ?(hw = Layout.Shared) () = Cache_sim.create (Config.default hw)
let xg = Latency.of_core Latency.Xeon_gold

(* x86-private addresses are local to x86, remote to arm, in Shared mode *)
let a_local = 4096 * 17

let access c node kind paddr = Cache_sim.access c ~node kind ~paddr

(* ---------- Level ---------- *)

let test_level_lru () =
  let g = { Config.size = 4 * 64; ways = 4 } in
  (* one set, four ways *)
  let l = Level.create g in
  checki "capacity" 4 (Level.capacity_lines l);
  for i = 0 to 3 do
    Alcotest.(check (option int)) "no eviction while filling" None (Level.insert l ~line:i)
  done;
  (* touch 0 so 1 becomes LRU *)
  Alcotest.(check bool) "hit" true (Level.probe l ~line:0);
  Alcotest.(check (option int)) "LRU evicted" (Some 1) (Level.insert l ~line:99);
  Alcotest.(check bool) "0 still present" true (Level.contains l ~line:0);
  Alcotest.(check bool) "1 gone" false (Level.contains l ~line:1)

let test_level_lru_16_way () =
  (* one set, sixteen ways, the L3's associativity *)
  let l = Level.create { Config.size = 16 * 64; ways = 16 } in
  for i = 0 to 15 do
    Alcotest.(check (option int)) "no eviction while filling" None (Level.insert l ~line:i)
  done;
  (* touch every even line, oldest first: 1 becomes LRU, then 3, 5, ... *)
  for i = 0 to 7 do
    Alcotest.(check bool) "hit" true (Level.probe l ~line:(2 * i))
  done;
  Alcotest.(check (option int)) "LRU evicted" (Some 1) (Level.insert l ~line:100);
  Alcotest.(check (option int)) "next LRU evicted" (Some 3) (Level.insert l ~line:101);
  (* an invalid way is refilled before any valid way is evicted *)
  Alcotest.(check bool) "invalidate" true (Level.invalidate l ~line:8);
  Alcotest.(check (option int)) "invalid way absorbs the fill" None (Level.insert l ~line:102);
  Alcotest.(check (option int)) "then LRU again" (Some 5) (Level.insert l ~line:103);
  checki "occupied" 16 (Level.occupied l)

let test_level_invalidate () =
  let l = Level.create { Config.size = 8 * 64; ways = 2 } in
  ignore (Level.insert l ~line:5);
  Alcotest.(check bool) "invalidate present" true (Level.invalidate l ~line:5);
  Alcotest.(check bool) "second invalidate is a no-op" false (Level.invalidate l ~line:5)

let test_level_rejects_bad_ways () =
  List.iter
    (fun ways ->
      match Level.create { Config.size = ways * 4 * 64; ways } with
      | _ -> Alcotest.failf "%d ways accepted" ways
      | exception Invalid_argument _ -> ())
    [ 0; 3; 12; 64 ]

(* The stamp-based exact LRU that [Level] must reproduce: every touch
   takes the next tick; a fill takes the first invalid way in index
   order, else the way with the least stamp (valid stamps are unique). *)
module Lru_oracle = struct
  type t = { sets : int; ways : int; tags : int array; stamp : int array; mutable tick : int }

  let create ~sets ~ways =
    { sets; ways; tags = Array.make (sets * ways) (-1); stamp = Array.make (sets * ways) 0; tick = 0 }

  let find t line =
    let base = line land (t.sets - 1) * t.ways in
    let rec go w = if w = t.ways then -1 else if t.tags.(base + w) = line then base + w else go (w + 1) in
    go 0

  let touch t idx =
    t.tick <- t.tick + 1;
    t.stamp.(idx) <- t.tick

  let probe_way t line =
    let idx = find t line in
    if idx >= 0 then touch t idx;
    idx

  (* the evicted line (-1 if none) and the index filled *)
  let insert_evict t line =
    let base = line land (t.sets - 1) * t.ways in
    let victim = ref (-1) in
    for w = t.ways - 1 downto 0 do
      if t.tags.(base + w) = -1 then victim := base + w
    done;
    if !victim < 0 then begin
      victim := base;
      for w = 1 to t.ways - 1 do
        if t.stamp.(base + w) < t.stamp.(!victim) then victim := base + w
      done
    end;
    let evicted = t.tags.(!victim) in
    t.tags.(!victim) <- line;
    touch t !victim;
    (evicted, !victim)

  let invalidate t line =
    let idx = find t line in
    if idx >= 0 then t.tags.(idx) <- -1;
    idx >= 0

  let occupied t = Array.fold_left (fun n tag -> if tag >= 0 then n + 1 else n) 0 t.tags
end

(* Random operation streams against the oracle on 1- to 16-way sets. *)
let prop_level_matches_lru_oracle =
  QCheck.Test.make ~name:"level replacement matches the stamp LRU oracle" ~count:60
    QCheck.(pair (int_range 0 4) small_int)
    (fun (shift, seed) ->
      let ways = 1 lsl shift and sets = 4 in
      let l = Level.create { Config.size = sets * ways * 64; ways } in
      let o = Lru_oracle.create ~sets ~ways in
      let rng = Rng.create ~seed:(Int64.of_int (seed + 29)) in
      let fail op line fmt = QCheck.Test.fail_reportf ("%s line %d: " ^^ fmt) op line in
      (* twice the capacity's worth of lines: hits, misses and evictions *)
      let lines = 2 * sets * ways in
      for _ = 1 to 3_000 do
        let line = Rng.int rng lines in
        (match Rng.int rng 4 with
        | 0 ->
            if Rng.bool rng then begin
              let want = Lru_oracle.probe_way o line >= 0 in
              let got = Level.probe l ~line in
              if got <> want then fail "probe" line "level %b, oracle %b" got want
            end
            else begin
              let want = Lru_oracle.find o line in
              let got = Level.find l ~line in
              if got <> want then fail "find" line "level %d, oracle %d" got want
            end
        | 1 ->
            let want = Lru_oracle.probe_way o line in
            let got = Level.probe_way l ~line in
            if got <> want then fail "probe_way" line "level %d, oracle %d" got want;
            if got >= 0 && Rng.bool rng then begin
              Lru_oracle.touch o got;
              Level.touch_way l got
            end
        | 2 ->
            if Lru_oracle.find o line < 0 then begin
              if Level.probe l ~line then fail "probe before fill" line "level hit";
              let want, want_idx = Lru_oracle.insert_evict o line in
              let got = Level.insert_evict l ~line in
              if got <> want then fail "insert_evict" line "level evicted %d, oracle %d" got want;
              if Level.last_fill l <> want_idx then
                fail "last_fill" line "level %d, oracle %d" (Level.last_fill l) want_idx
            end
        | _ ->
            let idx = Lru_oracle.find o line in
            let want = Lru_oracle.invalidate o line in
            if idx >= 0 && Rng.bool rng then Level.invalidate_at l idx
            else begin
              let got = Level.invalidate l ~line in
              if got <> want then fail "invalidate" line "level %b, oracle %b" got want
            end);
        for i = 0 to (sets * ways) - 1 do
          if Level.tag_at l i <> o.Lru_oracle.tags.(i) then
            fail "after" line "index %d holds %d, oracle %d" i (Level.tag_at l i)
              o.Lru_oracle.tags.(i)
        done;
        if Level.occupied l <> Lru_oracle.occupied o then
          fail "after" line "occupied %d, oracle %d" (Level.occupied l) (Lru_oracle.occupied o)
      done;
      true)

(* ---------- Mesi ---------- *)

let test_mesi_transitions () =
  Alcotest.(check bool) "read vs M snoops data" true (Mesi.on_read ~other:Mesi.M = (Mesi.S, Mesi.S, Mesi.Snoop_data));
  Alcotest.(check bool) "read vs I takes E" true (Mesi.on_read ~other:Mesi.I = (Mesi.E, Mesi.I, Mesi.No_snoop));
  Alcotest.(check bool) "write vs S invalidates" true
    (Mesi.on_write ~other:Mesi.S = (Mesi.M, Mesi.I, Mesi.Snoop_invalidate));
  Alcotest.(check bool) "upgrade vs I silent" true (Mesi.on_upgrade ~other:Mesi.I = (Mesi.M, Mesi.I, Mesi.No_snoop))

(* ---------- Cache_sim basics ---------- *)

let test_miss_then_hit () =
  let c = fresh () in
  let first = access c x86 Cache_sim.Load a_local in
  Alcotest.(check bool) "first access pays memory latency" true (first >= xg.Latency.mem);
  let second = access c x86 Cache_sim.Load a_local in
  checki "second is an L1 hit" xg.Latency.l1 second;
  checki "one local mem fill" 1 (Cache_sim.stat c x86 "local_mem_hits");
  checki "two l1d accesses" 2 (Cache_sim.stat c x86 "l1d_accesses");
  checki "one l1d hit" 1 (Cache_sim.stat c x86 "l1d_hits")

let test_remote_memory_latency () =
  let c = fresh () in
  (* x86 private memory is remote for arm in the Shared model. *)
  let lat = access c arm Cache_sim.Load a_local in
  let tx2 = Latency.of_core Latency.Thunderx2 in
  Alcotest.(check bool) "arm pays remote latency" true (lat >= tx2.Latency.remote_mem);
  checki "remote hit counted" 1 (Cache_sim.stat c arm "remote_mem_hits")

let test_ring_classified_as_remote_shared () =
  let c = fresh () in
  let ring_addr = Layout.message_ring.Layout.lo + 128 in
  ignore (access c x86 Cache_sim.Load ring_addr);
  checki "ring access classified" 1 (Cache_sim.stat c x86 "remote_shared_mem_hits")

let test_write_invalidates_other_node () =
  let c = fresh () in
  ignore (access c x86 Cache_sim.Load a_local);
  ignore (access c arm Cache_sim.Load a_local);
  (* both nodes now hold the line Shared; a store must invalidate the peer *)
  let store_cost = access c x86 Cache_sim.Store a_local in
  Alcotest.(check bool) "upgrade pays snoop-invalidate" true
    (store_cost >= Cxl.default.Cxl.snoop_invalidate);
  checki "snoop invalidation counted" 1 (Cache_sim.stat c x86 "snoop_invalidates");
  (* the peer must re-miss *)
  let arm_again = access c arm Cache_sim.Load a_local in
  Alcotest.(check bool) "peer misses after invalidation" true (arm_again > xg.Latency.l1)

let test_read_of_modified_snoops_data () =
  let c = fresh () in
  ignore (access c x86 Cache_sim.Store a_local);
  ignore (access c arm Cache_sim.Load a_local);
  checki "snoop data counted at reader" 1 (Cache_sim.stat c arm "snoop_data")

let test_writeback_counted () =
  let c = fresh () in
  let cfg = Cache_sim.config c in
  let l3_lines = cfg.Config.l3.Config.size / 64 in
  (* dirty many lines, then stream far past the L3 capacity *)
  for i = 0 to 63 do
    ignore (access c x86 Cache_sim.Store (a_local + (i * 64)))
  done;
  for i = 0 to (4 * l3_lines) - 1 do
    ignore (access c x86 Cache_sim.Load (Addr.mib 64 + (i * 64)))
  done;
  Alcotest.(check bool) "dirty evictions produce writebacks" true
    (Cache_sim.stat c x86 "writebacks" > 0)

let test_writeback_hook_fires () =
  let c = fresh () in
  let fired = ref 0 in
  Cache_sim.set_writeback_hook c (Some (fun _node ~line:_ -> incr fired));
  let cfg = Cache_sim.config c in
  let l3_lines = cfg.Config.l3.Config.size / 64 in
  for i = 0 to 63 do
    ignore (access c x86 Cache_sim.Store (a_local + (i * 64)))
  done;
  for i = 0 to (4 * l3_lines) - 1 do
    ignore (access c x86 Cache_sim.Load (Addr.mib 64 + (i * 64)))
  done;
  Alcotest.(check bool) "hook fired" true (!fired > 0);
  checki "hook count matches stat" (Cache_sim.stat c x86 "writebacks") !fired

let test_fully_shared_single_l3 () =
  let c = fresh ~hw:Layout.Fully_shared () in
  ignore (access c x86 Cache_sim.Load a_local);
  (* same line from the other node: shared L3 should hit *)
  let lat = access c arm Cache_sim.Load a_local in
  let tx2 = Latency.of_core Latency.Thunderx2 in
  Alcotest.(check bool) "arm hits the shared L3" true (lat < tx2.Latency.mem);
  checki "no remote hits in fully shared" 0 (Cache_sim.stat c arm "remote_mem_hits")

let test_atomic_costs_more () =
  let c = fresh () in
  ignore (access c x86 Cache_sim.Store a_local);
  let plain = access c x86 Cache_sim.Store a_local in
  let atomic = Cache_sim.atomic_rmw c ~node:x86 ~paddr:a_local in
  Alcotest.(check bool) "atomic > plain store" true (atomic > plain)

let test_access_bytes_spans_lines () =
  let c = fresh () in
  ignore (Cache_sim.access_bytes c ~node:x86 Cache_sim.Load ~paddr:(a_local + 32) ~len:64);
  checki "two lines touched" 2 (Cache_sim.stat c x86 "l1d_accesses")

let test_ifetch_uses_l1i () =
  let c = fresh () in
  ignore (access c x86 Cache_sim.Ifetch a_local);
  checki "l1i access" 1 (Cache_sim.stat c x86 "l1i_accesses");
  checki "no l1d access" 0 (Cache_sim.stat c x86 "l1d_accesses")

(* ---------- property: plugin vs Ruby agreement on random traces ---------- *)

let prop_ruby_agreement =
  QCheck.Test.make ~name:"plugin and ruby hit rates agree within 8% on random traces" ~count:10
    QCheck.small_int (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int (seed + 1)) in
      let c = fresh () in
      let trace = Trace.create () in
      Trace.attach trace c;
      (* clustered random accesses: 64 hot pages + uniform noise *)
      for _ = 1 to 30_000 do
        let node = if Rng.bool rng then x86 else arm in
        let kind = if Rng.int rng 10 < 3 then Cache_sim.Store else Cache_sim.Load in
        let paddr =
          if Rng.int rng 10 < 8 then 4096 * (1 + Rng.int rng 64) + (Rng.int rng 64 * 64)
          else Rng.int rng (Addr.mib 16)
        in
        ignore (Cache_sim.access c ~node kind ~paddr)
      done;
      Cache_sim.set_probe c None;
      let ruby = Ruby_ref.create (Cache_sim.config c) in
      Trace.replay_into_ruby trace ruby;
      List.for_all
        (fun node ->
          List.for_all
            (fun level ->
              Float.abs (Cache_sim.hit_rate c node level -. Ruby_ref.hit_rate ruby node level)
              < 0.08)
            [ "l1d"; "l2" ])
        Node_id.all)

(* MESI + inclusion invariants hold after arbitrary access interleavings,
   on all three hardware models. *)
let prop_consistency =
  QCheck.Test.make ~name:"cache invariants hold under random interleavings" ~count:30
    QCheck.(pair (int_range 0 2) small_int)
    (fun (model_idx, seed) ->
      let hw = List.nth Layout.all_hw_models model_idx in
      let c = fresh ~hw () in
      let rng = Rng.create ~seed:(Int64.of_int (seed + 7)) in
      for _ = 1 to 5_000 do
        let node = if Rng.bool rng then x86 else arm in
        let kind =
          match Rng.int rng 3 with 0 -> Cache_sim.Ifetch | 1 -> Cache_sim.Load | _ -> Cache_sim.Store
        in
        (* concentrated addresses to force evictions and sharing *)
        let paddr = 4096 * Rng.int rng 128 + (64 * Rng.int rng 64) in
        ignore (Cache_sim.access c ~node kind ~paddr)
      done;
      match Cache_sim.check_consistency c with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let test_consistency_after_atomics () =
  let c = fresh () in
  for i = 0 to 500 do
    ignore (Cache_sim.atomic_rmw c ~node:(if i mod 2 = 0 then x86 else arm) ~paddr:(64 * (i mod 7)))
  done;
  Alcotest.(check bool) "consistent" true (Cache_sim.check_consistency c = Ok ())

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_ruby_agreement; prop_consistency; prop_level_matches_lru_oracle ]

let () =
  Alcotest.run "cache"
    [
      ( "level",
        [
          Alcotest.test_case "lru" `Quick test_level_lru;
          Alcotest.test_case "lru 16-way" `Quick test_level_lru_16_way;
          Alcotest.test_case "invalidate" `Quick test_level_invalidate;
          Alcotest.test_case "rejects bad ways" `Quick test_level_rejects_bad_ways;
        ] );
      ( "mesi",
        [
          Alcotest.test_case "transitions" `Quick test_mesi_transitions;
        ] );
      ( "cache_sim",
        [
          Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
          Alcotest.test_case "remote latency" `Quick test_remote_memory_latency;
          Alcotest.test_case "ring classification" `Quick test_ring_classified_as_remote_shared;
          Alcotest.test_case "write invalidates peer" `Quick test_write_invalidates_other_node;
          Alcotest.test_case "read of M snoops data" `Quick test_read_of_modified_snoops_data;
          Alcotest.test_case "writebacks counted" `Quick test_writeback_counted;
          Alcotest.test_case "writeback hook" `Quick test_writeback_hook_fires;
          Alcotest.test_case "fully shared L3" `Quick test_fully_shared_single_l3;
          Alcotest.test_case "atomic cost" `Quick test_atomic_costs_more;
          Alcotest.test_case "access_bytes" `Quick test_access_bytes_spans_lines;
          Alcotest.test_case "ifetch l1i" `Quick test_ifetch_uses_l1i;
          Alcotest.test_case "consistency after atomics" `Quick test_consistency_after_atomics;
        ] );
      ("properties", qsuite);
    ]
