(* Tests for addresses, physical memory, the Fig.-4 layout and Table-2
   latencies. *)

module Addr = Stramash_mem.Addr
module Phys_mem = Stramash_mem.Phys_mem
module Layout = Stramash_mem.Layout
module Latency = Stramash_mem.Latency
module Node_id = Stramash_sim.Node_id

let checki = Alcotest.(check int)

(* ---------- Addr ---------- *)

let test_addr_basics () =
  checki "page size" 4096 Addr.page_size;
  checki "line size" 64 Addr.line_size;
  checki "page_of" 2 (Addr.page_of 8192);
  checki "page_base" 8192 (Addr.page_base 8200);
  checki "page_offset" 8 (Addr.page_offset 8200);
  checki "line_of" 128 (Addr.line_of 8200);
  checki "gib" (1 lsl 30) (Addr.gib 1)

let test_addr_alignment () =
  checki "align_up already aligned" 4096 (Addr.align_up 4096 ~alignment:4096);
  checki "align_up" 8192 (Addr.align_up 4097 ~alignment:4096);
  checki "align_down" 4096 (Addr.align_down 8191 ~alignment:4096)

let test_lines_spanned () =
  checki "within one line" 1 (Addr.lines_spanned 0 ~len:64);
  checki "straddles" 2 (Addr.lines_spanned 60 ~len:8);
  checki "page" 64 (Addr.lines_spanned 4096 ~len:4096);
  checki "empty" 0 (Addr.lines_spanned 100 ~len:0)

let prop_align_up =
  QCheck.Test.make ~name:"align_up is aligned and minimal" ~count:500
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 12))
    (fun (a, shift) ->
      let alignment = 1 lsl shift in
      let r = Addr.align_up a ~alignment in
      r >= a && r mod alignment = 0 && r - a < alignment)

let prop_lines_spanned =
  QCheck.Test.make ~name:"lines_spanned covers the range" ~count:500
    QCheck.(pair (int_range 0 100_000) (int_range 1 10_000))
    (fun (a, len) ->
      let n = Addr.lines_spanned a ~len in
      Addr.line_of (a + len - 1) - Addr.line_of a + 1 = n)

(* ---------- Phys_mem ---------- *)

let test_phys_rw_widths () =
  let m = Phys_mem.create () in
  Phys_mem.write m 100 ~width:8 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Phys_mem.read m 100 ~width:8);
  Alcotest.(check int64) "little-endian low u32" 0x55667788L (Phys_mem.read m 100 ~width:4);
  Alcotest.(check int64) "u16" 0x7788L (Phys_mem.read m 100 ~width:2);
  checki "u8" 0x88 (Phys_mem.read_u8 m 100)

let test_phys_zero_default () =
  let m = Phys_mem.create () in
  Alcotest.(check int64) "unwritten reads 0" 0L (Phys_mem.read_u64 m (Addr.gib 7))

let test_phys_f64 () =
  let m = Phys_mem.create () in
  Phys_mem.write_f64 m 4096 3.14159;
  Alcotest.(check (float 0.0)) "f64 roundtrip" 3.14159 (Phys_mem.read_f64 m 4096)

let test_phys_copy_and_zero_page () =
  let m = Phys_mem.create () in
  Phys_mem.write_u64 m 4096 99L;
  Phys_mem.write_u64 m 8184 77L;
  Phys_mem.copy_page m ~src:4096 ~dst:16384;
  Alcotest.(check int64) "copied head" 99L (Phys_mem.read_u64 m 16384);
  Alcotest.(check int64) "copied tail" 77L (Phys_mem.read_u64 m (16384 + 4088));
  Phys_mem.zero_page m 16384;
  Alcotest.(check int64) "zeroed" 0L (Phys_mem.read_u64 m 16384);
  (* a reused frame: every word of the page is cleared *)
  for i = 0 to (Addr.page_size / 8) - 1 do
    Phys_mem.write_u64 m (4096 + (8 * i)) (Int64.of_int (i + 1))
  done;
  Phys_mem.zero_page m 4096;
  for i = 0 to (Addr.page_size / 8) - 1 do
    Alcotest.(check int64) "reused frame zeroed" 0L (Phys_mem.read_u64 m (4096 + (8 * i)))
  done;
  (* an untouched frame already reads as zeros and is left absent *)
  let touched = Phys_mem.touched_pages m in
  Phys_mem.zero_page m (Addr.gib 5);
  checki "untouched frame stays unmaterialised" touched (Phys_mem.touched_pages m);
  Alcotest.(check bool) "page-pointer cache consistent" true (Phys_mem.self_check m = Ok ());
  Alcotest.(check int64) "untouched frame reads 0" 0L (Phys_mem.read_u64 m (Addr.gib 5 + 4088))

let test_phys_sparse () =
  let m = Phys_mem.create () in
  Phys_mem.write_u64 m 0 1L;
  Phys_mem.write_u64 m (Addr.gib 6) 2L;
  checki "only touched pages materialise" 2 (Phys_mem.touched_pages m)

let prop_phys_roundtrip =
  QCheck.Test.make ~name:"phys u64 write/read roundtrip" ~count:300
    QCheck.(pair (int_range 0 100_000) int64)
    (fun (slot, v) ->
      let m = Phys_mem.create () in
      let a = slot * 8 in
      Phys_mem.write_u64 m a v;
      Phys_mem.read_u64 m a = v)

(* ---------- Layout ---------- *)

let test_layout_regions () =
  Alcotest.(check bool) "x86 private starts at 0" true (Layout.x86_private.Layout.lo = 0);
  Alcotest.(check bool) "arm private follows" true
    (Layout.arm_private.Layout.lo = Layout.x86_private.Layout.hi);
  checki "message ring is 128MB" (Addr.mib 128) (Layout.region_size Layout.message_ring);
  Alcotest.(check bool) "pool after ring" true (Layout.pool.Layout.lo = Layout.message_ring.Layout.hi);
  checki "total is 8GB" (Addr.gib 8) Layout.total_memory

let loc model node a = Layout.locality model ~node a

let test_layout_fully_shared () =
  List.iter
    (fun node ->
      List.iter
        (fun a ->
          Alcotest.(check bool) "fully shared is always local" true
            (loc Layout.Fully_shared node a = Layout.Local))
        [ 0; Addr.gib 2; Addr.gib 5; Addr.gib 7 ])
    Node_id.all

let test_layout_separated () =
  (* x86 local: [0,1.5G) and [4,6G); arm local: [1.5,3G) and [6,8G). *)
  Alcotest.(check bool) "x86 own private local" true
    (loc Layout.Separated Node_id.X86 0 = Layout.Local);
  Alcotest.(check bool) "x86 sees arm private remote" true
    (loc Layout.Separated Node_id.X86 (Addr.gib 2) = Layout.Remote);
  Alcotest.(check bool) "x86 lower pool half local" true
    (loc Layout.Separated Node_id.X86 (Addr.gib 5) = Layout.Local);
  Alcotest.(check bool) "x86 upper pool half remote" true
    (loc Layout.Separated Node_id.X86 (Addr.gib 7) = Layout.Remote);
  Alcotest.(check bool) "arm upper pool half local" true
    (loc Layout.Separated Node_id.Arm (Addr.gib 7) = Layout.Local)

let test_layout_shared () =
  Alcotest.(check bool) "pool remote for x86" true
    (loc Layout.Shared Node_id.X86 (Addr.gib 5) = Layout.Remote);
  Alcotest.(check bool) "pool remote for arm" true
    (loc Layout.Shared Node_id.Arm (Addr.gib 7) = Layout.Remote);
  Alcotest.(check bool) "private local for owner" true
    (loc Layout.Shared Node_id.Arm (Addr.gib 2) = Layout.Local);
  Alcotest.(check bool) "private remote for other" true
    (loc Layout.Shared Node_id.X86 (Addr.gib 2) = Layout.Remote)

let test_message_ring_detection () =
  Alcotest.(check bool) "ring detected" true (Layout.in_message_ring (Addr.gib 4));
  Alcotest.(check bool) "pool not ring" true (not (Layout.in_message_ring (Addr.gib 5)))

(* ---------- Latency (Table 2) ---------- *)

let test_latency_table2 () =
  let xg = Latency.of_core Latency.Xeon_gold in
  checki "XG L1" 4 xg.Latency.l1;
  checki "XG L2" 14 xg.Latency.l2;
  Alcotest.(check (option int)) "XG L3" (Some 50) xg.Latency.l3;
  checki "XG mem" 300 xg.Latency.mem;
  checki "XG remote" 640 xg.Latency.remote_mem;
  let a72 = Latency.of_core Latency.Cortex_a72 in
  Alcotest.(check (option int)) "A72 has no L3" None a72.Latency.l3;
  checki "A72 remote is the highest" 780 a72.Latency.remote_mem

let test_latency_defaults () =
  Alcotest.(check bool) "x86 default is Xeon Gold" true
    (Latency.default_for_node Node_id.X86 = Latency.of_core Latency.Xeon_gold);
  Alcotest.(check bool) "arm default is ThunderX2" true
    (Latency.default_for_node Node_id.Arm = Latency.of_core Latency.Thunderx2)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_align_up; prop_lines_spanned; prop_phys_roundtrip ]

let () =
  Alcotest.run "mem"
    [
      ( "addr",
        [
          Alcotest.test_case "basics" `Quick test_addr_basics;
          Alcotest.test_case "alignment" `Quick test_addr_alignment;
          Alcotest.test_case "lines_spanned" `Quick test_lines_spanned;
        ] );
      ( "phys_mem",
        [
          Alcotest.test_case "widths" `Quick test_phys_rw_widths;
          Alcotest.test_case "zero default" `Quick test_phys_zero_default;
          Alcotest.test_case "f64" `Quick test_phys_f64;
          Alcotest.test_case "copy/zero page" `Quick test_phys_copy_and_zero_page;
          Alcotest.test_case "sparse" `Quick test_phys_sparse;
        ] );
      ( "layout",
        [
          Alcotest.test_case "regions" `Quick test_layout_regions;
          Alcotest.test_case "fully shared" `Quick test_layout_fully_shared;
          Alcotest.test_case "separated" `Quick test_layout_separated;
          Alcotest.test_case "shared" `Quick test_layout_shared;
          Alcotest.test_case "message ring" `Quick test_message_ring_detection;
        ] );
      ( "latency",
        [
          Alcotest.test_case "table 2" `Quick test_latency_table2;
          Alcotest.test_case "node defaults" `Quick test_latency_defaults;
        ] );
      ("properties", qsuite);
    ]
