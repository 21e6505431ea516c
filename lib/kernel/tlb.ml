type entry = { frame : int; writable : bool }

type t = {
  size : int;
  vpages : int array; (* -1 invalid *)
  asids : int array;
  entries : entry array;
  mutable hits : int;
  mutable misses : int;
  mutable shootdowns : int;
}

let none = { frame = 0; writable = false }

let create ?(entries = 64) () =
  assert (entries > 0 && entries land (entries - 1) = 0);
  {
    size = entries;
    vpages = Array.make entries (-1);
    asids = Array.make entries (-1);
    entries = Array.make entries none;
    hits = 0;
    misses = 0;
    shootdowns = 0;
  }

let slot t vpage = vpage land (t.size - 1)

let lookup t ~asid ~vpage =
  let s = slot t vpage in
  if t.vpages.(s) = vpage && t.asids.(s) = asid then begin
    t.hits <- t.hits + 1;
    Some t.entries.(s)
  end
  else begin
    t.misses <- t.misses + 1;
    None
  end

(* Fused translation. A direct-mapped TLB holds at most one live entry
   per slot, so the per-access translation is one slot probe with the
   permission check folded in: no [option] allocation, and hit/miss
   accounting identical to composing {!lookup} with the caller's
   writability match. [probe] is the check and counts nothing;
   [translate] is [probe] plus the counting, and a caller that takes
   [probe]'s frame counts the hit with [count_hit].

   Both return the frame (>= 0) on a usable hit; [miss] (-1) when the
   slot does not hold (asid, vpage) — [translate] counts a miss and the
   caller walks and {!insert}s; [not_writable] (-2) when the entry is
   present but read-only and [write] is set — [translate] counts a HIT
   (the reference path's {!lookup} counted one before rejecting the
   entry) and the caller must proceed straight to the walk without
   re-probing. *)
let miss = -1
let not_writable = -2

(* [s] is masked to the (power-of-two) table size, so the unsafe reads
   are in bounds by construction. *)
let[@inline] probe t ~asid ~vpage ~write =
  let s = vpage land (t.size - 1) in
  if Array.unsafe_get t.vpages s = vpage && Array.unsafe_get t.asids s = asid then begin
    let e = Array.unsafe_get t.entries s in
    if write && not e.writable then not_writable else e.frame
  end
  else miss

let[@inline] count_hit t = t.hits <- t.hits + 1

let[@inline] translate t ~asid ~vpage ~write =
  let frame = probe t ~asid ~vpage ~write in
  if frame = miss then t.misses <- t.misses + 1 else count_hit t;
  frame

let insert t ~asid ~vpage entry =
  let s = slot t vpage in
  t.vpages.(s) <- vpage;
  t.asids.(s) <- asid;
  t.entries.(s) <- entry

let flush_page t ~vpage =
  let s = slot t vpage in
  if t.vpages.(s) = vpage then begin
    t.vpages.(s) <- -1;
    t.asids.(s) <- -1
  end

let flush_all t =
  Array.fill t.vpages 0 t.size (-1);
  Array.fill t.asids 0 t.size (-1)

(* A shootdown is a remotely-requested [flush_page]: same invalidation,
   but counted separately so cross-ISA invalidation traffic (the cost the
   placement engine charges an IPI round for) is visible on its own. *)
let shootdown t ~vpage =
  t.shootdowns <- t.shootdowns + 1;
  flush_page t ~vpage

let hits t = t.hits
let misses t = t.misses
let shootdowns t = t.shootdowns
