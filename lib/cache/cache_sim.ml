module Node_id = Stramash_sim.Node_id
module Metrics = Stramash_sim.Metrics
module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout
module Latency = Stramash_mem.Latency

type kind = Ifetch | Load | Store

type mode = Fast | Reference | Paranoid

exception Divergence of string

(* Mutable per-node counters: this module sits on the simulator's hottest
   path (one call per simulated instruction), so counters are plain record
   fields rather than string-keyed metrics. *)
type node_stats = {
  mutable l1i_hits : int;
  mutable l1i_accesses : int;
  mutable l1d_hits : int;
  mutable l1d_accesses : int;
  mutable l2_hits : int;
  mutable l2_accesses : int;
  mutable l3_hits : int;
  mutable l3_accesses : int;
  mutable local_mem_hits : int;
  mutable remote_mem_hits : int;
  mutable remote_shared_mem_hits : int;
  mutable writebacks : int;
  mutable back_invalidations : int;
  mutable snoop_data : int;
  mutable snoop_invalidates : int;
  mutable mem_accesses : int;
  (* Host-side fast-path observability; deliberately NOT part of the model
     counters in [stat_names], so [stats] registries stay bit-identical
     between Fast and Reference runs. *)
  mutable l0_hits : int;
  mutable l0_misses : int;
}

let fresh_stats () =
  {
    l1i_hits = 0;
    l1i_accesses = 0;
    l1d_hits = 0;
    l1d_accesses = 0;
    l2_hits = 0;
    l2_accesses = 0;
    l3_hits = 0;
    l3_accesses = 0;
    local_mem_hits = 0;
    remote_mem_hits = 0;
    remote_shared_mem_hits = 0;
    writebacks = 0;
    back_invalidations = 0;
    snoop_data = 0;
    snoop_invalidates = 0;
    mem_accesses = 0;
    l0_hits = 0;
    l0_misses = 0;
  }

let stat_value s = function
  | "l1i_hits" -> s.l1i_hits
  | "l1i_accesses" -> s.l1i_accesses
  | "l1d_hits" -> s.l1d_hits
  | "l1d_accesses" -> s.l1d_accesses
  | "l2_hits" -> s.l2_hits
  | "l2_accesses" -> s.l2_accesses
  | "l3_hits" -> s.l3_hits
  | "l3_accesses" -> s.l3_accesses
  | "local_mem_hits" -> s.local_mem_hits
  | "remote_mem_hits" -> s.remote_mem_hits
  | "remote_shared_mem_hits" -> s.remote_shared_mem_hits
  | "writebacks" -> s.writebacks
  | "back_invalidations" -> s.back_invalidations
  | "snoop_data" -> s.snoop_data
  | "snoop_invalidates" -> s.snoop_invalidates
  | "mem_accesses" -> s.mem_accesses
  | "l0_hits" -> s.l0_hits
  | "l0_misses" -> s.l0_misses
  | name -> invalid_arg ("Cache_sim.stat: unknown counter " ^ name)

let stat_names =
  [
    "l1i_hits"; "l1i_accesses"; "l1d_hits"; "l1d_accesses"; "l2_hits"; "l2_accesses";
    "l3_hits"; "l3_accesses"; "local_mem_hits"; "remote_mem_hits"; "remote_shared_mem_hits";
    "writebacks"; "back_invalidations"; "snoop_data"; "snoop_invalidates"; "mem_accesses";
  ]

(* A node's private levels. Its coherence point is the level whose
   contents the node's MESI state describes: the private L3, or the L2
   when the L3 is shared. [states] holds that state per way of the
   point's tag store, I exactly on its invalid ways ([check_consistency]
   audits both directions), so one search of the coherence point gives
   presence and state together, and an evicted line leaves with the
   state stored at its way. *)
type node_caches = {
  l1i : Level.t;
  l1d : Level.t;
  l2 : Level.t;
  l3 : Level.t option;
  point : Level.t;
  states : Mesi.state array;
}

(* L0 line filter: a direct-mapped array of recently L1-hit lines, one per
   port (instruction / data). A slot answers a repeat access without
   re-entering the MESI machinery when it can prove the answer is the one
   the reference path would produce:

     - presence is revalidated against the L1 tag store itself
       ([Level.tag_at] at the cached way), so an eviction or snoop
       invalidation can never leave a stale load/ifetch entry — no hook
       traffic is needed for the load side;
     - [store_m] additionally records that this node's MESI state for
       the line is M (a store therefore pays no upgrade and mutates no
       coherence state); it is cleared the moment any coherence
       transition moves the line out of M, which is the invalidation
       contract the rest of this module upholds ([check_consistency]
       audits it).

   An L0 hit replicates the reference path's observable effects exactly:
   the same stat increments and the same LRU touch ([Level.touch_way] at
   the cached way), and returns the same L1 latency.

   Sizing: the filter is purely host-side (slot count changes only which
   accesses take the fast path, never any simulated state), so it is
   sized to make conflict misses negligible — the backing L1s hold at
   most a few hundred lines, and 8192 direct-mapped slots leave the
   collision probability between live lines in the noise. The arrays
   are not small: 4 filters (2 nodes x 2 ports) x 3 arrays x 8192 words
   is 768 KiB. A hit reads one slot of each of its filter's arrays, so
   only the slots of the lines in use need to stay in the host's caches. *)
let l0_slots = 8192

type port = {
  lines : int array; (* -1 empty *)
  ways : int array; (* index into [l1]'s tag store *)
  store_m : bool array; (* this node's state of the line known to be M *)
  l1 : Level.t;
}

(* One node's filters and the counters an L0 hit bumps. *)
type l0 = { ifetch : port; data : port; counts : node_stats }

let fresh_port l1 =
  {
    lines = Array.make l0_slots (-1);
    ways = Array.make l0_slots 0;
    store_m = Array.make l0_slots false;
    l1;
  }

type t = {
  cfg : Config.t;
  nodes : node_caches array;
  nstats : node_stats array;
  l0s : l0 array;
  mutable mode : mode;
  lat_l1 : int array; (* per node index; avoids a Config lookup per hit *)
  shared_l3 : Level.t option;
  mutable probes : (Node_id.t -> kind -> int -> unit) list;
  mutable writeback_hooks : (Node_id.t -> line:int -> unit) list;
}

let create cfg =
  let make_node () =
    let l2 = Level.create cfg.Config.l2 in
    let l3 = if cfg.Config.shared_l3 then None else Some (Level.create cfg.Config.l3) in
    let point = match l3 with Some l3 -> l3 | None -> l2 in
    {
      l1i = Level.create cfg.Config.l1i;
      l1d = Level.create cfg.Config.l1d;
      l2;
      l3;
      point;
      states = Array.make (Level.capacity_lines point) Mesi.I;
    }
  in
  let lat_l1 = Array.make (List.length Node_id.all) 0 in
  List.iter
    (fun node -> lat_l1.(Node_id.index node) <- (Config.latencies cfg node).Latency.l1)
    Node_id.all;
  let nodes = [| make_node (); make_node () |] in
  let nstats = [| fresh_stats (); fresh_stats () |] in
  let l0_for i =
    { ifetch = fresh_port nodes.(i).l1i; data = fresh_port nodes.(i).l1d; counts = nstats.(i) }
  in
  {
    cfg;
    nodes;
    nstats;
    l0s = [| l0_for 0; l0_for 1 |];
    mode = Fast;
    lat_l1;
    shared_l3 = (if cfg.Config.shared_l3 then Some (Level.create cfg.Config.l3) else None);
    probes = [];
    writeback_hooks = [];
  }

let set_mode t mode = t.mode <- mode
let mode t = t.mode

let config t = t.cfg

(* Classify an access latency the way the placement sampler needs it:
   anything at or above the node's DRAM latency missed every cache level,
   and at or above the remote-memory latency it crossed the interconnect.
   Latencies are per-node (Table 2), so the thresholds must be too. *)
let latency_class t ~node cycles =
  let lat = Config.latencies t.cfg node in
  if cycles >= lat.Latency.remote_mem then `Remote_mem
  else if cycles >= lat.Latency.mem then `Local_mem
  else `Cache

let stats t =
  let reg = Metrics.registry () in
  List.iter
    (fun node ->
      let s = t.nstats.(Node_id.index node) in
      List.iter
        (fun name -> Metrics.set reg (Node_id.to_string node ^ "." ^ name) (stat_value s name))
        stat_names)
    Node_id.all;
  reg

let stat t node name = stat_value t.nstats.(Node_id.index node) name

let hit_rate t node level =
  let hits = stat t node (level ^ "_hits") in
  let accesses = stat t node (level ^ "_accesses") in
  if accesses = 0 then 0.0 else float_of_int hits /. float_of_int accesses

(* Observers chain: callers register independently (Cache.Trace, DSM, the
   obs layer) and all fire in registration order. [set_* None] clears
   every observer; [set_* (Some f)] resets the chain to just [f] — the
   historical single-slot behaviour, kept for existing call sites. *)
let add_probe t f = t.probes <- t.probes @ [ f ]

let set_probe t probe =
  t.probes <- (match probe with None -> [] | Some f -> [ f ])

let add_writeback_hook t f = t.writeback_hooks <- t.writeback_hooks @ [ f ]

let set_writeback_hook t hook =
  t.writeback_hooks <- (match hook with None -> [] | Some f -> [ f ])

(* Observer chains are walked by hand: [List.iter] with a capturing
   closure would allocate on every eviction and every probed access. *)
let rec fire_writeback_hooks hooks node ~line =
  match hooks with
  | [] -> ()
  | f :: rest ->
      f node ~line;
      fire_writeback_hooks rest node ~line

let fire_writeback t node ~line = fire_writeback_hooks t.writeback_hooks node ~line

let rec fire_probes probes node kind paddr =
  match probes with
  | [] -> ()
  | f :: rest ->
      f node kind paddr;
      fire_probes rest node kind paddr

(* The per-node arrays have one entry per node and [Node_id.index] is 0
   or 1, so the unchecked reads are in bounds. *)
let[@inline] caches t node = Array.unsafe_get t.nodes (Node_id.index node)
let[@inline] nstat t node = Array.unsafe_get t.nstats (Node_id.index node)
let[@inline] l0_of t node = Array.unsafe_get t.l0s (Node_id.index node)

let clear_store_m t node ~line =
  let p = (l0_of t node).data in
  let s = line land (l0_slots - 1) in
  if p.lines.(s) = line then p.store_m.(s) <- false

(* [node]'s state at index [idx] of its coherence point, -1 meaning the
   line is absent. Every index comes from a search or a fill of that
   point, so the unchecked read is in bounds. *)
let[@inline] state_at c idx = if idx < 0 then Mesi.I else Array.unsafe_get c.states idx

(* Change the state of [line], held at index [idx] of [node]'s coherence
   point. A state leaves M only here (also by way of [drop_held]) or when
   [fill_point] evicts a line, and both clear the line's L0 [store_m]
   bit then, so the bit can never outlive the M it records; the store
   upgrades in [store_hit_cost] only enter M. This holds in every mode:
   keeping the filters coherent even while the fast path is off means
   the mode can be flipped mid-run without a flush protocol. *)
let set_state t node c idx ~line state =
  if Mesi.equal (Array.unsafe_get c.states idx) Mesi.M && not (Mesi.equal state Mesi.M) then
    clear_store_m t node ~line;
  Array.unsafe_set c.states idx state

(* Drop [line] from [node]'s levels above its coherence point. L1 is a
   subset of L2 ([check_consistency] audits it), so on a private L3 the
   L1s are searched only when the L2 held the line. *)
let drop_above c ~line =
  if match c.l3 with Some _ -> Level.invalidate c.l2 ~line | None -> true then begin
    ignore (Level.invalidate c.l1i ~line);
    ignore (Level.invalidate c.l1d ~line)
  end

(* Drop [line], held at index [idx] of [node]'s coherence point, from
   every private level of [node]; returns the state it had. *)
let drop_held t node c idx ~line =
  let state = Array.unsafe_get c.states idx in
  set_state t node c idx ~line Mesi.I;
  Level.invalidate_at c.point idx;
  drop_above c ~line;
  state

(* A dirty line leaves [node]'s coherence point for memory. *)
let write_back t node ~line =
  let s = nstat t node in
  s.writebacks <- s.writebacks + 1;
  fire_writeback t node ~line

(* Fill [line], which [node] does not hold, at its coherence point in
   [state]. The line the fill displaces leaves with the state stored at
   its way: it is dropped from the levels above and written back if it
   was M. *)
let fill_point t node c ~line state =
  let evicted = Level.insert_evict c.point ~line in
  let idx = Level.last_fill c.point in
  let old = Array.unsafe_get c.states idx in
  Array.unsafe_set c.states idx state;
  if evicted >= 0 then begin
    drop_above c ~line:evicted;
    if Mesi.equal old Mesi.M then begin
      clear_store_m t node ~line:evicted;
      write_back t node ~line:evicted
    end
  end

(* Eviction from the shared L3 invalidates both nodes' private copies
   (Back-Invalidate Snoop in CXL terms). *)
let back_invalidate t node ~line =
  let c = caches t node in
  let idx = Level.find c.point ~line in
  if idx >= 0 then begin
    if Mesi.equal (drop_held t node c idx ~line) Mesi.M then write_back t node ~line;
    let s = nstat t node in
    s.back_invalidations <- s.back_invalidations + 1
  end

(* Both nodes in [Node_id.all] order. *)
let evict_from_shared_l3 t ~line =
  back_invalidate t Node_id.X86 ~line;
  back_invalidate t Node_id.Arm ~line

(* A fill above the coherence point. Inclusive hierarchy: dropping from
   L2 drops from the L1s too. An L1 eviction also drops the sibling L1's
   copy, which inclusion does not require; the level that evicted the
   line no longer holds it, so it is not searched again. *)
let insert_above t node level ~line =
  match Level.insert_evict level ~line with
  | -1 -> ()
  | evicted ->
      let c = caches t node in
      if level != c.l1i then ignore (Level.invalidate c.l1i ~line:evicted);
      if level != c.l1d then ignore (Level.invalidate c.l1d ~line:evicted)

let insert_shared_l3 t level ~line =
  match Level.insert_evict level ~line with
  | -1 -> ()
  | evicted -> evict_from_shared_l3 t ~line:evicted

(* Classify the memory behind [paddr] for [node] and count the fill. *)
let memory_fill_latency t node paddr =
  let lat = Config.latencies t.cfg node in
  let s = nstat t node in
  match Layout.locality t.cfg.Config.hw_model ~node paddr with
  | Layout.Local ->
      s.local_mem_hits <- s.local_mem_hits + 1;
      lat.Latency.mem
  | Layout.Remote ->
      if Layout.in_message_ring paddr then
        s.remote_shared_mem_hits <- s.remote_shared_mem_hits + 1
      else s.remote_mem_hits <- s.remote_mem_hits + 1;
      lat.Latency.remote_mem

let snoop_cost t node = function
  | Mesi.No_snoop -> 0
  | Mesi.Snoop_data ->
      let s = nstat t node in
      s.snoop_data <- s.snoop_data + 1;
      t.cfg.Config.cxl.Cxl.snoop_data
  | Mesi.Snoop_invalidate ->
      let s = nstat t node in
      s.snoop_invalidates <- s.snoop_invalidates + 1;
      t.cfg.Config.cxl.Cxl.snoop_invalidate

(* A store that hits a line [node] holds at index [idx] of its coherence
   point: M pays nothing, E upgrades silently, S runs the invalidating
   upgrade against the other node's state, found by one search of its
   coherence point. A top-level function (not a closure) so the hot path
   allocates nothing. *)
let store_hit_cost t ~node c idx ~line =
  match Array.unsafe_get c.states idx with
  | Mesi.M -> 0
  | Mesi.E ->
      Array.unsafe_set c.states idx Mesi.M;
      0
  | Mesi.S ->
      let other = Node_id.other node in
      let oc = caches t other in
      let oidx = Level.find oc.point ~line in
      (* the other node always ends in I: dropped below if it held the line *)
      let mine, _, snoop = Mesi.on_upgrade ~other:(state_at oc oidx) in
      let cost = snoop_cost t node snoop in
      if oidx >= 0 then ignore (drop_held t other oc oidx ~line);
      Array.unsafe_set c.states idx mine;
      cost
  | Mesi.I ->
      (* a valid way in state I: [check_consistency] rejects it *)
      failwith
        (Printf.sprintf "Cache_sim: line 0x%x valid at %s's coherence point in state I" line
           (Node_id.to_string node))

(* The upgrade a hit above the coherence point costs: a store searches
   the point for the line's state. Inclusion puts the line there; if it
   is absent the model is broken, and the walk stops rather than read a
   state that does not exist. *)
let upgrade_cost t ~node c ~line kind =
  match kind with
  | Ifetch | Load -> 0
  | Store ->
      let idx = Level.find c.point ~line in
      if idx < 0 then
        failwith
          (Printf.sprintf "Cache_sim: line 0x%x held above %s's coherence point but absent from it"
             line (Node_id.to_string node));
      store_hit_cost t ~node c idx ~line

(* The same for a hit at index [idx] of the coherence point itself. *)
let upgrade_cost_at t ~node c idx ~line kind =
  match kind with Ifetch | Load -> 0 | Store -> store_hit_cost t ~node c idx ~line

let[@inline] port l0 kind = match kind with Ifetch -> l0.ifetch | Load | Store -> l0.data

(* The L1 way of [line] when [l0] can prove the reference answer (the
   slot holds the line, the L1 still holds it at the cached way, and for
   a store this node's state is M), else -1. Pure, so Paranoid mode uses
   it as a prediction to check against the reference path. The unsafe
   reads are in bounds: the slot is masked to the filter size. *)
let[@inline] l0_way l0 kind ~line =
  let p = port l0 kind in
  let slot = line land (l0_slots - 1) in
  let way = Array.unsafe_get p.ways slot in
  if
    Array.unsafe_get p.lines slot = line
    && (match kind with Store -> Array.unsafe_get p.store_m slot | Ifetch | Load -> true)
    && Level.tag_at p.l1 way = line
  then way
  else -1

(* The effects the reference path has for an L1 hit at [way], which
   [l0_way] just returned for the same kind and line: the counter
   increments and the LRU touch at the same way. *)
let[@inline] l0_commit l0 kind ~way =
  let s = l0.counts in
  s.l0_hits <- s.l0_hits + 1;
  s.mem_accesses <- s.mem_accesses + 1;
  (match kind with
  | Ifetch ->
      s.l1i_accesses <- s.l1i_accesses + 1;
      s.l1i_hits <- s.l1i_hits + 1
  | Load | Store ->
      s.l1d_accesses <- s.l1d_accesses + 1;
      s.l1d_hits <- s.l1d_hits + 1);
  Level.touch_way (port l0 kind).l1 way

(* Record an L1 hit in the filter. A store hit always leaves this node's
   state at M (M stays, E and S upgrade), so later stores to the line may
   skip the coherence walk until the line leaves M. *)
let l0_fill t ~node kind ~line ~way =
  let p = port (l0_of t node) kind in
  let s = line land (l0_slots - 1) in
  if p.lines.(s) <> line then begin
    p.lines.(s) <- line;
    p.store_m.(s) <- false
  end;
  p.ways.(s) <- way;
  match kind with Store -> p.store_m.(s) <- true | Ifetch | Load -> ()

let fill_transition kind ~other =
  match kind with Ifetch | Load -> Mesi.on_read ~other | Store -> Mesi.on_write ~other

(* A fill of a line [node] does not hold, from the shared L3 when
   [l3_hit] (Fully-Shared, where the L2 is the coherence point) and else
   from memory: the coherence transaction against the other node's state,
   found by one search of its coherence point, then the fills from the
   shared L3 or the coherence point up to [l1]. The evictions those fills
   cause touch other lines only. *)
let fill_unheld t ~node c kind ~line ~paddr l1 ~l3_hit ~l3_latency =
  let other = Node_id.other node in
  let oc = caches t other in
  let oidx = Level.find oc.point ~line in
  let mine, theirs, snoop = fill_transition kind ~other:(state_at oc oidx) in
  let snoop_c = snoop_cost t node snoop in
  if oidx >= 0 then begin
    match snoop with
    | Mesi.Snoop_invalidate -> ignore (drop_held t other oc oidx ~line)
    | Mesi.Snoop_data | Mesi.No_snoop -> set_state t other oc oidx ~line theirs
  end;
  let fill_lat =
    if l3_hit then l3_latency
    else begin
      let mem_lat = memory_fill_latency t node paddr in
      (match t.shared_l3 with Some shared -> insert_shared_l3 t shared ~line | None -> ());
      mem_lat
    end
  in
  fill_point t node c ~line mine;
  (match c.l3 with Some _ -> insert_above t node c.l2 ~line | None -> ());
  insert_above t node l1 ~line;
  fill_lat + snoop_c

(* The full 3-level MESI walk, shared by every mode. [populate] feeds L1
   hits back into the L0 filter (disabled in Reference mode, which runs
   without the filter). *)
let access_slow t ~node kind ~line ~paddr ~populate =
  let c = caches t node in
  let s = nstat t node in
  let lat = Config.latencies t.cfg node in
  let l1 = match kind with Ifetch -> c.l1i | Load | Store -> c.l1d in
  (match kind with
  | Ifetch ->
      s.l1i_accesses <- s.l1i_accesses + 1;
      s.mem_accesses <- s.mem_accesses + 1
  | Load | Store ->
      s.l1d_accesses <- s.l1d_accesses + 1;
      s.mem_accesses <- s.mem_accesses + 1);
  let l1_way = Level.probe_way l1 ~line in
  if l1_way >= 0 then begin
    (match kind with
    | Ifetch -> s.l1i_hits <- s.l1i_hits + 1;
    | Load | Store -> s.l1d_hits <- s.l1d_hits + 1);
    let cost = lat.Latency.l1 + upgrade_cost t ~node c ~line kind in
    if populate then l0_fill t ~node kind ~line ~way:l1_way;
    cost
  end
  else begin
    s.l2_accesses <- s.l2_accesses + 1;
    let l2_way = Level.probe_way c.l2 ~line in
    if l2_way >= 0 then begin
      s.l2_hits <- s.l2_hits + 1;
      insert_above t node l1 ~line;
      lat.Latency.l2
      +
      match c.l3 with
      | Some _ -> upgrade_cost t ~node c ~line kind
      | None -> upgrade_cost_at t ~node c l2_way ~line kind
    end
    else begin
      let l3_latency = match lat.Latency.l3 with Some v -> v | None -> lat.Latency.l2 in
      match c.l3 with
      | Some l3 ->
          s.l3_accesses <- s.l3_accesses + 1;
          let l3_way = Level.probe_way l3 ~line in
          if l3_way >= 0 then begin
            s.l3_hits <- s.l3_hits + 1;
            insert_above t node c.l2 ~line;
            insert_above t node l1 ~line;
            l3_latency + upgrade_cost_at t ~node c l3_way ~line kind
          end
          else fill_unheld t ~node c kind ~line ~paddr l1 ~l3_hit:false ~l3_latency
      | None ->
          (* the L2 is the coherence point and missed: [node] does not
             hold the line, so even a shared-L3 hit runs the coherence
             transaction *)
          let l3_hit =
            match t.shared_l3 with
            | Some shared ->
                s.l3_accesses <- s.l3_accesses + 1;
                Level.probe shared ~line
            | None -> false
          in
          if l3_hit then s.l3_hits <- s.l3_hits + 1;
          fill_unheld t ~node c kind ~line ~paddr l1 ~l3_hit ~l3_latency
    end
  end

let kind_name = function Ifetch -> "ifetch" | Load -> "load" | Store -> "store"

let access t ~node kind ~paddr =
  fire_probes t.probes node kind paddr;
  let line = Addr.line_of paddr in
  match t.mode with
  | Reference -> access_slow t ~node kind ~line ~paddr ~populate:false
  | Fast ->
      let l0 = l0_of t node in
      let way = l0_way l0 kind ~line in
      if way >= 0 then begin
        l0_commit l0 kind ~way;
        Array.unsafe_get t.lat_l1 (Node_id.index node)
      end
      else begin
        let s = l0.counts in
        s.l0_misses <- s.l0_misses + 1;
        access_slow t ~node kind ~line ~paddr ~populate:true
      end
  | Paranoid ->
      (* Cross-check: the L0 filter predicts, the reference path executes
         (so all model state evolves exactly as Reference mode), and any
         disagreement aborts the run at the first divergent access. *)
      let l0 = l0_of t node in
      let predicted = l0_way l0 kind ~line >= 0 in
      let s = l0.counts in
      if predicted then s.l0_hits <- s.l0_hits + 1 else s.l0_misses <- s.l0_misses + 1;
      let actual = access_slow t ~node kind ~line ~paddr ~populate:true in
      let lat_l1 = t.lat_l1.(Node_id.index node) in
      if predicted && actual <> lat_l1 then
        raise
          (Divergence
             (Printf.sprintf
                "L0 fast path diverges at paddr 0x%x (%s %s): predicted %d cycles, reference %d"
                paddr (Node_id.to_string node) (kind_name kind) lat_l1 actual));
      actual

(* Only while the fast engine is authoritative for every access: a probe
   must observe each one, which only [access] guarantees. *)
let l0 t node =
  match t.mode with
  | Fast when t.probes = [] -> Some (l0_of t node)
  | Fast | Reference | Paranoid -> None

(* Structural invariants; see the .mli. Visits every way of every level,
   so intended for tests and audits, not hot paths. *)
let check_consistency t =
  let exception Bad of string in
  let fail fmt_str = Printf.ksprintf (fun s -> raise (Bad s)) fmt_str in
  let iter_lines level f =
    for i = 0 to Level.capacity_lines level - 1 do
      let line = Level.tag_at level i in
      if line >= 0 then f line
    done
  in
  try
    List.iter
      (fun node ->
        let c = caches t node in
        let name = Node_id.to_string node in
        for i = 0 to Level.capacity_lines c.point - 1 do
          let line = Level.tag_at c.point i and state = c.states.(i) in
          if line >= 0 && Mesi.equal state Mesi.I then
            fail "line 0x%x held at %s coherence point in state I" line name;
          if line < 0 && not (Mesi.equal state Mesi.I) then
            fail "invalid way %d of %s coherence point in state %c" i name (Mesi.to_char state)
        done;
        (* The store-M rule an L0 store hit relies on: a set bit whose
           line is still in the L1 at the cached way means state M. *)
        let d = (l0_of t node).data in
        for slot = 0 to l0_slots - 1 do
          let line = d.lines.(slot) in
          if d.store_m.(slot) && line >= 0 && Level.tag_at d.l1 d.ways.(slot) = line then begin
            let state = state_at c (Level.find c.point ~line) in
            if not (Mesi.equal state Mesi.M) then
              fail "L0 store-M bit set for line 0x%x of %s in state %c" line name
                (Mesi.to_char state)
          end
        done;
        (* Inclusion: an L1-resident line must be L2-resident, and an
           L2-resident line must sit at the private L3 if one exists. *)
        let in_l2 line =
          if not (Level.contains c.l2 ~line) then
            fail "L1 line 0x%x not in %s L2 (inclusion)" line name
        in
        iter_lines c.l1i in_l2;
        iter_lines c.l1d in_l2;
        match c.l3 with
        | Some l3 ->
            iter_lines c.l2 (fun line ->
                if not (Level.contains l3 ~line) then
                  fail "L2 line 0x%x not in %s L3 (inclusion)" line name)
        | None -> ())
      Node_id.all;
    let writable = function Mesi.E | Mesi.M -> true | Mesi.S | Mesi.I -> false in
    let x86 = caches t Node_id.X86 and arm = caches t Node_id.Arm in
    for i = 0 to Level.capacity_lines x86.point - 1 do
      let line = Level.tag_at x86.point i in
      if
        line >= 0
        && writable x86.states.(i)
        && writable (state_at arm (Level.find arm.point ~line))
      then fail "line 0x%x writable on both nodes" line
    done;
    Ok ()
  with Bad s -> Error s

let access_bytes t ~node kind ~paddr ~len =
  let first = Addr.line_base paddr in
  let lines = Addr.lines_spanned paddr ~len in
  let total = ref 0 in
  for i = 0 to lines - 1 do
    total := !total + access t ~node kind ~paddr:(first + (i * Addr.line_size))
  done;
  !total

let atomic_rmw t ~node ~paddr =
  access t ~node Store ~paddr + t.cfg.Config.cxl.Cxl.atomic_extra
