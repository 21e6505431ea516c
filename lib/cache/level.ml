(* Exact LRU without scans. Each set keeps its valid ways on a circular
   doubly-linked recency list, most recent at the head, so the least
   recent is the head's predecessor; its invalid ways are a bitmask. A
   fill takes the lowest-numbered invalid way, else the least recent way;
   a touch moves a way to the head. That is the classic stamp rule (first
   invalid way in index order, else the least stamp, valid stamps being
   unique) in constant time whatever the associativity.

   Ways are numbered within their set. [links] holds one word per way,
   [prev lor (next lsl 8)], meaningful only while the way is valid; [lru]
   holds one word per set, [head lor (invalid_mask lsl 8)]. A set whose
   mask has every way's bit set has an empty list, and its head field is
   stale. *)
type t = {
  sets : int;
  ways : int;
  way_shift : int; (* log2 ways *)
  tags : int array; (* -1 = invalid; indexed set*ways + way *)
  links : int array;
  lru : int array;
  mutable occupied : int;
  mutable last_fill : int; (* index the latest [insert_evict] filled *)
}

let create (g : Config.geometry) =
  let ways = g.ways in
  if ways <= 0 || ways > 32 || ways land (ways - 1) <> 0 then
    invalid_arg (Printf.sprintf "Level.create: %d ways (need a power of two up to 32)" ways);
  let sets = Config.sets g in
  let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
  {
    sets;
    ways;
    way_shift = log2 ways;
    tags = Array.make (sets * ways) (-1);
    links = Array.make (sets * ways) 0;
    lru = Array.make sets (((1 lsl ways) - 1) lsl 8);
    occupied = 0;
    last_fill = -1;
  }

let set_of t line = line land (t.sets - 1)

(* Every scanned index is below [set * ways + ways <= sets * ways], so
   the unsafe reads are in bounds by construction. A [while] loop rather
   than a local recursive function, which would allocate a closure per
   lookup. *)
let find t ~line =
  let tags = t.tags in
  let i = ref (set_of t line lsl t.way_shift) in
  let stop = !i + t.ways in
  while !i < stop && Array.unsafe_get tags !i <> line do
    incr i
  done;
  if !i < stop then !i else -1

(* The neighbour fields of a link word. *)
let[@inline] prev l = l land 0xFF
let[@inline] next l = l lsr 8
let[@inline] with_prev l p = l land lnot 0xFF lor p
let[@inline] with_next l n = l land 0xFF lor (n lsl 8)

(* 1 when [0 <= x < 2^32] is non-zero, else 0: the sum carries into bit
   32 exactly then, so no branch depends on the data. *)
let[@inline] nonzero x = (x + 0xFFFF_FFFF) lsr 32

(* The way number of a mask with exactly one bit set, below bit 32; each
   term is one bit of the answer. *)
let[@inline] bit_index b =
  nonzero (b land 0xAAAA_AAAA)
  lor (nonzero (b land 0xCCCC_CCCC) lsl 1)
  lor (nonzero (b land 0xF0F0_F0F0) lsl 2)
  lor (nonzero (b land 0xFF00_FF00) lsl 3)
  lor (nonzero (b land 0xFFFF_0000) lsl 4)

(* Link way [w] between the tail and head [h] of a non-empty list. The
   caller makes [w] the head in the set word. Indices below are
   [base + way] with [way < ways], so the unsafe accesses are in bounds. *)
let link_before_head links base h w =
  let hl = Array.unsafe_get links (base + h) in
  let tail = prev hl in
  Array.unsafe_set links (base + w) (tail lor (h lsl 8));
  Array.unsafe_set links (base + tail) (with_next (Array.unsafe_get links (base + tail)) w);
  Array.unsafe_set links (base + h) (with_prev (Array.unsafe_get links (base + h)) w)

(* Take way [w] off its list; it must be valid and not the only way on it. *)
let unlink links base w =
  let l = Array.unsafe_get links (base + w) in
  let p = prev l and n = next l in
  Array.unsafe_set links (base + p) (with_next (Array.unsafe_get links (base + p)) n);
  Array.unsafe_set links (base + n) (with_prev (Array.unsafe_get links (base + n)) p)

(* Make valid way [w], which is not the head, the most recent. The least
   recent way becomes the head by a turn of the ring alone. *)
let move_to_head t set s w =
  let links = t.links and base = set lsl t.way_shift in
  let h = s land 0xFF in
  if prev (Array.unsafe_get links (base + h)) <> w then begin
    unlink links base w;
    link_before_head links base h w
  end;
  Array.unsafe_set t.lru set (s land lnot 0xFF lor w)

(* [idx] must be a valid way's index below [sets * ways]. *)
let[@inline] touch_way t idx =
  let set = idx lsr t.way_shift in
  let s = Array.unsafe_get t.lru set in
  let w = idx land (t.ways - 1) in
  if s land 0xFF <> w then move_to_head t set s w

let[@inline] tag_at t idx = t.tags.(idx)

let probe t ~line =
  let idx = find t ~line in
  if idx >= 0 then begin
    touch_way t idx;
    true
  end
  else false

(* Fast-path support: [probe_way] is [probe] that also reports where the
   line sits, so the L0 filter can re-touch the same way later without a
   scan. Tags are unique within a set (insert asserts absence), so the
   reported index is the one [find] would return. *)
let probe_way t ~line =
  let idx = find t ~line in
  if idx >= 0 then touch_way t idx;
  idx

let contains t ~line = find t ~line >= 0

(* Allocation-free insert on the miss-fill hot path: returns the evicted
   line, or -1 when an invalid way absorbed the fill. The line must be
   absent (callers insert only after a failed probe); [insert] asserts
   that, [insert_evict] is the no-assert form the cache simulator's
   per-access path uses. *)
let insert_evict t ~line =
  let set = set_of t line in
  let base = set lsl t.way_shift in
  let links = t.links in
  let s = Array.unsafe_get t.lru set in
  let invalid = s lsr 8 in
  if invalid <> 0 then begin
    let w = bit_index (invalid land (-invalid)) in
    Array.unsafe_set t.tags (base + w) line;
    if invalid = (1 lsl t.ways) - 1 then Array.unsafe_set links (base + w) (w lor (w lsl 8))
    else link_before_head links base (s land 0xFF) w;
    Array.unsafe_set t.lru set (w lor ((invalid lxor (1 lsl w)) lsl 8));
    t.occupied <- t.occupied + 1;
    t.last_fill <- base + w;
    -1
  end
  else begin
    let victim = prev (Array.unsafe_get links (base + (s land 0xFF))) in
    let evicted = Array.unsafe_get t.tags (base + victim) in
    Array.unsafe_set t.tags (base + victim) line;
    Array.unsafe_set t.lru set victim;
    t.last_fill <- base + victim;
    evicted
  end

let last_fill t = t.last_fill

let insert t ~line =
  assert (find t ~line < 0);
  match insert_evict t ~line with -1 -> None | evicted -> Some evicted

(* The checked read of [lru] rejects any index outside the tag store, so
   the unsafe accesses after it are in bounds. *)
let invalidate_at t idx =
  let set = idx lsr t.way_shift in
  let base = set lsl t.way_shift and w = idx land (t.ways - 1) in
  let s = t.lru.(set) in
  let l = Array.unsafe_get t.links idx in
  (* a sole way leaves an empty list, whose head field is stale *)
  if prev l <> w then unlink t.links base w;
  let head = if s land 0xFF = w then next l else s land 0xFF in
  Array.unsafe_set t.lru set (head lor ((s lor (1 lsl (w + 8))) land lnot 0xFF));
  t.tags.(idx) <- -1;
  t.occupied <- t.occupied - 1

let invalidate t ~line =
  let idx = find t ~line in
  if idx >= 0 then invalidate_at t idx;
  idx >= 0

let capacity_lines t = t.sets * t.ways
let occupied t = t.occupied
