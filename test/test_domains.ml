(* Determinism of multicore host execution: simulated results must be a
   pure function of the simulated configuration, never of how many host
   domains ran them. Covers 1-vs-N machine-level identity on NPB benches
   and byte-identical chaos-soak rendering across domain counts. *)

module Node_id = Stramash_sim.Node_id
module Domain_pool = Stramash_sim.Domain_pool
module Cache_sim = Stramash_cache.Cache_sim
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module W = Stramash_workloads
module C = Stramash_harness.Campaign
module CE = Stramash_harness.Chaos_experiments

let small_spec bench =
  match List.assoc_opt bench (W.Npb_suite.fig9_set ~small:true) with
  | Some spec -> spec
  | None -> Alcotest.failf "unknown bench %s" bench

(* One full simulated machine, reduced to the facts a replica must agree
   on: timing, work, traffic, and the workload's memory fingerprint. *)
let run_cell bench () =
  let spec = small_spec bench in
  let machine = Machine.create { Machine.default_config with cache_mode = Cache_sim.Fast } in
  let proc, thread = Machine.load machine spec in
  let result = Runner.run machine proc thread spec in
  ( result.Runner.wall_cycles,
    result.Runner.instructions,
    result.Runner.messages,
    C.checksum machine ~proc )

let test_domain_identity_npb () =
  let cells = Array.of_list [ "is"; "cg"; "is"; "cg" ] in
  let tasks = Array.map (fun bench -> run_cell bench) cells in
  let sequential = Domain_pool.map ~domains:1 tasks in
  let parallel = Domain_pool.map ~domains:4 tasks in
  Array.iteri
    (fun i seq ->
      Alcotest.(check bool)
        (Printf.sprintf "cell %d (%s) identical across domain counts" i cells.(i))
        true
        (seq = parallel.(i)))
    sequential

let render_soak ~domains =
  let buf = Buffer.create 65536 in
  let fmt = Format.formatter_of_buffer buf in
  let verdict, cells =
    C.soak fmt ~header:"chaos soak" ~seed:0xC4A05L ~cells:2 ~domains (fun fmt seed ->
        CE.campaign fmt ~seed ~bench:"is" ~kills:2 ())
  in
  Format.pp_print_flush fmt ();
  (verdict, cells, Buffer.contents buf)

let test_soak_byte_identical () =
  let v1, c1, out1 = render_soak ~domains:1 in
  let v2, c2, out2 = render_soak ~domains:2 in
  Alcotest.(check string) "rendered soak byte-identical" out1 out2;
  Alcotest.(check bool) "per-cell verdicts identical" true (c1 = c2);
  Alcotest.(check string) "overall verdict identical" (C.verdict_to_string v1)
    (C.verdict_to_string v2);
  Alcotest.(check string) "soak is clean" "CLEAN" (C.verdict_to_string v1)

let () =
  Alcotest.run "domains"
    [
      ( "determinism",
        [
          Alcotest.test_case "1-vs-4-domain NPB identity" `Quick test_domain_identity_npb;
          Alcotest.test_case "soak renders byte-identical" `Quick test_soak_byte_identical;
        ] );
    ]
