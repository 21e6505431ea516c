(** Shared-memory message ring (paper §6.2, §8.2).

    One directional ring per (sender, receiver) pair, laid out in the
    128 MB message-layer area of physical memory. Head/tail words live on
    separate cache lines; slots hold a fixed header plus payload. Costs are
    not modelled abstractly: every control-word and payload access goes
    through the cache simulator at cache-line granularity, so the ring's
    latency emerges from the memory system and hardware model, exactly as
    for the real SHM messaging layer.

    The ring also functions as a real queue for arbitrary message values
    (the simulated payload bytes are cost, the OCaml value is content). *)

type 'a t

val create :
  cache:Stramash_cache.Cache_sim.t ->
  base:int ->
  slots:int ->
  slot_bytes:int ->
  sender:Stramash_sim.Node_id.t ->
  'a t
(** [base] must be line-aligned; place it inside
    {!Stramash_mem.Layout.message_ring} for remote-shared accounting. *)

val send : 'a t -> payload_bytes:int -> 'a -> (int, [ `Full ]) result
(** Enqueue; returns the sender-side cycle cost (tail CAS + header +
    payload stores). Payloads longer than one slot occupy several slots. *)

val recv : 'a t -> (int * 'a) option
(** Dequeue the oldest message; returns the receiver-side cycle cost (head
    update + header + payload loads) and the message. *)

val length : 'a t -> int
(** Messages currently queued. *)
