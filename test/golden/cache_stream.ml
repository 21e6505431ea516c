(* Golden pin of the cache layer.

   One seeded two-node access stream per hardware model, driven straight
   into [Cache_sim]: ifetches, loads, stores, atomic read-modify-writes
   and multi-line [access_bytes] copies. Addresses fall in four windows
   (both private regions, the message ring and the pool) that together
   span six times the modelled L3. One access in five falls in a 32-line
   set small enough to stay in the L1s, where the L0 filter answers
   repeats, and two in five in a hot set of 512 lines; both nodes share
   both. Per model it prints a digest of every access's latency, the
   write-back hook's call sequence, the coherence events the stream
   exercised and the full [Cache_sim.stats] registry, so a change that
   moves one latency, counter or write-back fails [dune runtest] with a
   diff against cache.expected.

   The run itself fails when the stream stops exercising an event it
   exists to pin (S to M upgrades, both snoop kinds, write-backs, and on
   the Fully-Shared model shared-L3 first fills and back-invalidations),
   or when [Cache_sim.check_consistency] rejects the final state. *)

module Node_id = Stramash_sim.Node_id
module Rng = Stramash_sim.Rng
module Metrics = Stramash_sim.Metrics
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Config = Stramash_cache.Config
module Cache_sim = Stramash_cache.Cache_sim

let accesses = 150_000

(* Four windows of 384 KiB: 1.5 MiB, six times the 256 KiB L3. The first
   two pages of each window are the hot set; the tiny set is the head of
   the pool window's third page. *)
let window = 384 * 1024
let hot_lines = 2 * Addr.page_size / Addr.line_size
let tiny_lines = 32

let bases = [| Layout.x86_private.lo; Layout.arm_private.lo; Layout.message_ring.lo; Layout.pool.lo |]

let run hw =
  let name = Layout.hw_model_to_string hw in
  let c = Cache_sim.create (Config.default hw) in
  let wb = Buffer.create 4096 and wb_calls = ref 0 in
  Cache_sim.add_writeback_hook c (fun node ~line ->
      incr wb_calls;
      Printf.bprintf wb "%s:%x;" (Node_id.to_string node) line);
  let lat = Buffer.create (accesses * 4) in
  let rng = Rng.create ~seed:0x5eedL in
  let stat = Cache_sim.stat c in
  let fills node =
    stat node "local_mem_hits" + stat node "remote_mem_hits" + stat node "remote_shared_mem_hits"
  in
  let upgrades = ref 0 and first_fills = ref 0 in
  for _ = 1 to accesses do
    let node = if Rng.bool rng then Node_id.X86 else Node_id.Arm in
    let base = bases.(Rng.int rng (Array.length bases)) in
    let paddr =
      match Rng.int rng 5 with
      | 0 -> Layout.pool.lo + (2 * Addr.page_size) + (Addr.line_size * Rng.int rng tiny_lines)
      | 1 | 2 -> base + (Addr.line_size * Rng.int rng hot_lines)
      | _ -> base + Rng.int rng window
    in
    let invalidates = stat node "snoop_invalidates" in
    let l3_hits = stat node "l3_hits" and filled = fills node in
    let cycles, one_line_store =
      match Rng.int rng 20 with
      | 0 | 1 -> (Cache_sim.access c ~node Cache_sim.Ifetch ~paddr, false)
      | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 -> (Cache_sim.access c ~node Cache_sim.Load ~paddr, false)
      | 11 | 12 | 13 | 14 | 15 | 16 -> (Cache_sim.access c ~node Cache_sim.Store ~paddr, true)
      | 17 -> (Cache_sim.atomic_rmw c ~node ~paddr, true)
      | _ ->
          let kind = if Rng.bool rng then Cache_sim.Load else Cache_sim.Store in
          (Cache_sim.access_bytes c ~node kind ~paddr ~len:(1 + Rng.int rng 256), false)
    in
    Printf.bprintf lat "%d," cycles;
    (* On a shared L3 the private L2 is the coherence point, so every L3
       hit fills a line the node did not hold. Elsewhere, a one-line
       store that snooped to invalidate without a memory fill upgraded a
       line it held in S. *)
    if hw = Layout.Fully_shared && stat node "l3_hits" > l3_hits then incr first_fills
    else if one_line_store && stat node "snoop_invalidates" > invalidates && fills node = filled
    then incr upgrades
  done;
  let total counter = stat Node_id.X86 counter + stat Node_id.Arm counter in
  let require what n =
    if n = 0 then begin
      Printf.eprintf "%s: the stream produced no %s\n" name what;
      exit 1
    end
  in
  require "S to M upgrades" !upgrades;
  require "data snoops" (total "snoop_data");
  require "invalidating snoops" (total "snoop_invalidates");
  require "write-backs" (total "writebacks");
  require "write-back hook calls" !wb_calls;
  if hw = Layout.Fully_shared then begin
    require "shared-L3 first fills" !first_fills;
    require "back-invalidations" (total "back_invalidations")
  end;
  (match Cache_sim.check_consistency c with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "%s: %s\n" name msg;
      exit 1);
  Printf.printf "%s accesses=%d latency_md5=%s\n" name accesses
    (Digest.to_hex (Digest.string (Buffer.contents lat)));
  Printf.printf "%s writeback_hook calls=%d md5=%s\n" name !wb_calls
    (Digest.to_hex (Digest.string (Buffer.contents wb)));
  Printf.printf "%s events upgrades=%d shared_l3_first_fills=%d\n" name !upgrades !first_fills;
  List.iter
    (fun (counter, v) -> Printf.printf "%s %s=%d\n" name counter v)
    (Metrics.to_assoc (Cache_sim.stats c))

let () = List.iter run Layout.all_hw_models
