module Node_id = Stramash_sim.Node_id
module Addr = Stramash_mem.Addr
module Cache_sim = Stramash_cache.Cache_sim

type 'a slot_entry = { payload_bytes : int; slots_used : int; value : 'a }

type 'a t = {
  cache : Cache_sim.t;
  base : int;
  slots : int;
  slot_bytes : int;
  sender : Node_id.t;
  receiver : Node_id.t;
  queue : 'a slot_entry Queue.t;
  mutable tail : int; (* next slot to write (sender-owned) *)
  mutable head : int; (* next slot to read (receiver-owned) *)
  mutable used : int;
}

let header_bytes = 64 (* one line: type, size, sequence *)

let create ~cache ~base ~slots ~slot_bytes ~sender =
  assert (base land (Addr.line_size - 1) = 0);
  assert (slots > 0 && slot_bytes >= header_bytes);
  {
    cache;
    base;
    slots;
    slot_bytes;
    sender;
    receiver = Node_id.other sender;
    queue = Queue.create ();
    tail = 0;
    head = 0;
    used = 0;
  }

let tail_word t = t.base
let head_word t = t.base + Addr.line_size
let slot_addr t i = t.base + (2 * Addr.line_size) + (i * t.slot_bytes)

let slots_for t payload_bytes =
  let data = max payload_bytes 1 in
  (header_bytes + data + t.slot_bytes - 1) / t.slot_bytes

let length t = Queue.length t.queue

let send t ~payload_bytes value =
  let need = slots_for t payload_bytes in
  if t.used + need > t.slots then Error `Full
  else begin
    (* Reserve the slot range with an atomic tail bump, then stream the
       header and payload, then publish (second tail-line store). *)
    let cost = ref (Cache_sim.atomic_rmw t.cache ~node:t.sender ~paddr:(tail_word t)) in
    let first = t.tail in
    for s = 0 to need - 1 do
      let slot = (first + s) mod t.slots in
      let addr = slot_addr t slot in
      let bytes = min t.slot_bytes (header_bytes + payload_bytes - (s * t.slot_bytes)) in
      cost :=
        !cost
        + Cache_sim.access_bytes t.cache ~node:t.sender Cache_sim.Store ~paddr:addr ~len:bytes
    done;
    cost := !cost + Cache_sim.access t.cache ~node:t.sender Cache_sim.Store ~paddr:(tail_word t);
    t.tail <- (t.tail + need) mod t.slots;
    t.used <- t.used + need;
    Queue.push { payload_bytes; slots_used = need; value } t.queue;
    Ok !cost
  end

let recv t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some entry ->
      let cost = ref (Cache_sim.access t.cache ~node:t.receiver Cache_sim.Load ~paddr:(tail_word t)) in
      for s = 0 to entry.slots_used - 1 do
        let slot = (t.head + s) mod t.slots in
        let addr = slot_addr t slot in
        let bytes =
          min t.slot_bytes (header_bytes + entry.payload_bytes - (s * t.slot_bytes))
        in
        cost :=
          !cost
          + Cache_sim.access_bytes t.cache ~node:t.receiver Cache_sim.Load ~paddr:addr ~len:bytes
      done;
      cost := !cost + Cache_sim.access t.cache ~node:t.receiver Cache_sim.Store ~paddr:(head_word t);
      t.head <- (t.head + entry.slots_used) mod t.slots;
      t.used <- t.used - entry.slots_used;
      Some (!cost, entry.value)
