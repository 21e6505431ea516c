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
module Directory = Stramash_cache.Directory
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

let test_level_invalidate () =
  let l = Level.create { Config.size = 8 * 64; ways = 2 } in
  ignore (Level.insert l ~line:5);
  Alcotest.(check bool) "invalidate present" true (Level.invalidate l ~line:5);
  Alcotest.(check bool) "second invalidate is a no-op" false (Level.invalidate l ~line:5)

(* ---------- Mesi / Directory ---------- *)

let test_mesi_transitions () =
  Alcotest.(check bool) "read vs M snoops data" true (Mesi.on_read ~other:Mesi.M = (Mesi.S, Mesi.S, Mesi.Snoop_data));
  Alcotest.(check bool) "read vs I takes E" true (Mesi.on_read ~other:Mesi.I = (Mesi.E, Mesi.I, Mesi.No_snoop));
  Alcotest.(check bool) "write vs S invalidates" true
    (Mesi.on_write ~other:Mesi.S = (Mesi.M, Mesi.I, Mesi.Snoop_invalidate));
  Alcotest.(check bool) "upgrade vs I silent" true (Mesi.on_upgrade ~other:Mesi.I = (Mesi.M, Mesi.I, Mesi.No_snoop))

let test_directory () =
  let d = Directory.create () in
  Alcotest.(check bool) "initially I" true (Directory.get d x86 ~line:7 = Mesi.I);
  Directory.set d x86 ~line:7 Mesi.M;
  Directory.set d arm ~line:7 Mesi.S;
  Alcotest.(check bool) "x86 M" true (Directory.get d x86 ~line:7 = Mesi.M);
  Alcotest.(check bool) "arm S" true (Directory.get d arm ~line:7 = Mesi.S);
  Directory.set d x86 ~line:7 Mesi.I;
  Alcotest.(check bool) "x86 back to I" true (not (Directory.holds d x86 ~line:7));
  Alcotest.(check bool) "arm unaffected" true (Directory.holds d arm ~line:7)

(* Lines set and cleared one after another leave nothing behind: the
   table's capacity follows the live lines, not the lines ever seen. *)
let test_directory_capacity_tracks_live () =
  let d = Directory.create () in
  let start = Directory.capacity d in
  for line = 0 to 99_999 do
    Directory.set d x86 ~line Mesi.M;
    Directory.set d x86 ~line Mesi.I
  done;
  checki "no live lines" 0 (Directory.tracked_lines d);
  checki "capacity unchanged" start (Directory.capacity d)

(* Random sets against a [Hashtbl] model: deletions that shift entries
   back must keep every other line reachable with its states. *)
let prop_directory_model =
  QCheck.Test.make ~name:"directory agrees with a hashtable model" ~count:30 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int (seed + 13)) in
      let d = Directory.create () in
      let model = Hashtbl.create 64 in
      let states = [| Mesi.I; Mesi.S; Mesi.E; Mesi.M |] in
      let lines = 1 + Rng.int rng 6000 in
      for _ = 1 to 20_000 do
        let node = if Rng.bool rng then x86 else arm in
        let line = Rng.int rng lines in
        let state = states.(Rng.int rng 4) in
        Directory.set d node ~line state;
        Hashtbl.replace model (node, line) state
      done;
      let live = ref 0 in
      for line = 0 to lines - 1 do
        let st node = Option.value (Hashtbl.find_opt model (node, line)) ~default:Mesi.I in
        if not (Mesi.equal (st x86) Mesi.I && Mesi.equal (st arm) Mesi.I) then incr live;
        List.iter
          (fun node ->
            if not (Mesi.equal (Directory.get d node ~line) (st node)) then
              QCheck.Test.fail_reportf "line %d on %s: directory %c, model %c" line
                (Node_id.to_string node)
                (Mesi.to_char (Directory.get d node ~line))
                (Mesi.to_char (st node)))
          Node_id.all
      done;
      Directory.tracked_lines d = !live)

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
    [ prop_ruby_agreement; prop_consistency; prop_directory_model ]

let () =
  Alcotest.run "cache"
    [
      ( "level",
        [
          Alcotest.test_case "lru" `Quick test_level_lru;
          Alcotest.test_case "invalidate" `Quick test_level_invalidate;
        ] );
      ( "mesi",
        [
          Alcotest.test_case "transitions" `Quick test_mesi_transitions;
          Alcotest.test_case "directory" `Quick test_directory;
          Alcotest.test_case "directory capacity tracks live lines" `Quick
            test_directory_capacity_tracks_live;
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
