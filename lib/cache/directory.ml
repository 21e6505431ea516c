module Node_id = Stramash_sim.Node_id

(* Two 2-bit states packed per line: bits [1:0] = node 0, bits [3:2] = node 1.
   Stored in an open-addressing table (linear probing, power-of-two
   capacity) rather than a [Hashtbl]: the directory is probed on every
   store upgrade and every fill, and the flat table answers without
   hashing calls or option allocation. A packed value of 0 (= I on both
   nodes) means "absent" and is never stored: setting a line to I on both
   nodes deletes its slot by backward shift, so the table holds exactly
   the live lines and its capacity tracks the most lines ever live at
   once. *)
type t = {
  mutable keys : int array; (* -1 = empty slot; line numbers are >= 0 *)
  mutable vals : int array; (* packed states, never 0 in an occupied slot *)
  mutable mask : int;
  mutable live : int; (* occupied slots *)
}

let initial_capacity = 4096

let create () : t =
  {
    keys = Array.make initial_capacity (-1);
    vals = Array.make initial_capacity 0;
    mask = initial_capacity - 1;
    live = 0;
  }

(* Line numbers come in dense sequential runs, which linear probing
   tolerates only under a mixing hash — masking the line directly turns
   two aliasing runs into one long probe chain. Fibonacci-style
   multiplicative mixing spreads runs uniformly. The scan terminates
   because the load factor is kept below 3/4. *)
let hash line mask =
  let h = line * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land mask

(* The slot holding [line], or the empty slot that ends its probe chain.
   A [while] loop rather than a local recursive function, which would
   allocate a closure per lookup. *)
let slot_of t line =
  let mask = t.mask and keys = t.keys in
  let s = ref (hash line mask) in
  while
    let k = Array.unsafe_get keys !s in
    k <> line && k <> -1
  do
    s := (!s + 1) land mask
  done;
  !s

(* Backward-shift deletion: empty slot [s], then walk the rest of its
   probe run and move back every entry whose home lies cyclically at or
   before the hole, so every remaining line stays reachable from its home
   without tombstones. Every index is masked, so the unchecked accesses
   are in bounds. *)
let delete t s =
  let mask = t.mask and keys = t.keys and vals = t.vals in
  let hole = ref s in
  let i = ref ((s + 1) land mask) in
  while Array.unsafe_get keys !i <> -1 do
    let k = Array.unsafe_get keys !i in
    (* [k] may fill the hole when its home is no nearer to [i] than the
       hole is, measured backwards from [i] *)
    if (!i - hash k mask) land mask >= (!i - !hole) land mask then begin
      Array.unsafe_set keys !hole k;
      Array.unsafe_set vals !hole (Array.unsafe_get vals !i);
      hole := !i
    end;
    i := (!i + 1) land mask
  done;
  Array.unsafe_set keys !hole (-1);
  Array.unsafe_set vals !hole 0;
  t.live <- t.live - 1

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = (t.mask + 1) * 2 in
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  Array.iteri
    (fun i line ->
      if line >= 0 then begin
        let s = slot_of t line in
        t.keys.(s) <- line;
        t.vals.(s) <- vals.(i)
      end)
    keys

let encode = function Mesi.I -> 0 | Mesi.S -> 1 | Mesi.E -> 2 | Mesi.M -> 3
let decode = function 0 -> Mesi.I | 1 -> Mesi.S | 2 -> Mesi.E | _ -> Mesi.M

let get t node ~line =
  let s = slot_of t line in
  if Array.unsafe_get t.keys s = line then
    decode (Array.unsafe_get t.vals s lsr (2 * Node_id.index node) land 3)
  else Mesi.I

let set t node ~line state =
  let shift = 2 * Node_id.index node in
  let s = slot_of t line in
  if t.keys.(s) = line then begin
    let packed = t.vals.(s) land lnot (3 lsl shift) lor (encode state lsl shift) in
    if packed = 0 then delete t s else t.vals.(s) <- packed
  end
  else if not (Mesi.equal state Mesi.I) then begin
    t.keys.(s) <- line;
    t.vals.(s) <- encode state lsl shift;
    t.live <- t.live + 1;
    if t.live * 4 > (t.mask + 1) * 3 then grow t
  end

let holds t node ~line =
  let s = slot_of t line in
  Array.unsafe_get t.keys s = line
  && Array.unsafe_get t.vals s lsr (2 * Node_id.index node) land 3 <> 0

let tracked_lines t = t.live

let capacity t = t.mask + 1

let iter_lines t ~f = Array.iter (fun line -> if line >= 0 then f line) t.keys
