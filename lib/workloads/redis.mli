(** Redis-like network-serving application model (paper §9.2.8, Fig. 14).

    The server process has migrated to the Arm island while its socket
    remains owned by the origin (x86) kernel — the Popcorn limitation the
    paper works around by migrating during the time event. Every request
    therefore crosses kernels:

    - under Popcorn, socket reads/writes are forwarded over the messaging
      layer (TCP or SHM ring), payload included;
    - under Stramash, the server reads/writes the origin's socket buffers
      directly through coherent shared memory, with an IPI for
      notification.

    Operation costs (parse, data-structure work) are charged through the
    cache simulator against server-local memory. As in the paper, results
    are functional-validation-grade: normalised per-request processing
    times, not absolute throughput.

    {2 Operation mix}

    Every request parses for {!parse_cycles}, probes the hash index (one
    charged load per probe), then runs its value phase:

    - [Get]: 2 index probes, read one [payload]-byte value; 128 B
      request, 1024 B reply.
    - [Set]: 2 probes, write one value; [payload]-byte request, 64 B ack.
    - [Lpush]/[Rpush]: 1 probe, write a value plus two pointer stores
      (list-node header and head/tail update).
    - [Lpop]/[Rpop]: 1 probe, read a value, one pointer store; 128 B
      request, 1024 B reply.
    - [Sadd]: 4 probes (set membership), write a value.
    - [Mset]: ten (probe, write) pairs — the batched op; the request
      carries all ten payloads, the reply is a 64 B ack. *)

type op = Get | Set | Lpush | Rpush | Lpop | Rpop | Sadd | Mset

val all_ops : op list
val op_name : op -> string

type result = { op : op; cycles_per_request : float }

val run :
  os:Stramash_machine.Machine.os_choice ->
  ?requests:int ->
  ?payload:int ->
  unit ->
  result list
(** Defaults: 10 000 requests of 1024 B, as in the paper. [os] must not be
    [Vanilla].
    @raise Invalid_argument if [requests <= 0] or [payload <= 0]. *)

(** {2 Per-request access}

    The serve subsystem drives the same cost model one request at a time
    against a machine it owns, substituting its own keyspace for the
    value phase. *)

type server
(** A migrated server instance: origin (x86) socket buffer, Arm-side
    staging page and private value pages. *)

val make_server : Stramash_machine.Machine.t -> server
(** Allocate the server's kernel pages on [machine].
    @raise Invalid_argument on the Vanilla personality. *)

val node_of : server -> Stramash_sim.Node_id.t
(** The island the server runs on (Arm). *)

val request_bytes : op -> payload:int -> int
val reply_bytes : op -> int

val serve_one : ?value:(write:bool -> unit) -> server -> op -> payload:int -> unit
(** One full request: socket delivery, parse + index + value phases,
    reply — [deliver]/[process]/[reply] in order. When [value] is given
    it replaces each default private-dataset value access (called once
    per value read/write the op performs: ten times for [Mset], once
    otherwise, with [~write] telling the direction); parse and
    index-probe costs are unchanged.
    @raise Invalid_argument if [payload <= 0]. *)

val deliver_to_server : server -> bytes:int -> unit
(** Socket-to-server delivery alone (request ingress). *)

val process_op : ?value:(write:bool -> unit) -> server -> op -> payload:int -> unit
(** Parse + index + value phases alone — the segment of a request that
    runs entirely on the server node (the serve subsystem brackets it to
    apply gray slow-down inflation without double-counting the message
    layer's own). *)

val reply_from_server : server -> bytes:int -> unit
(** Server-to-socket reply alone (response egress). *)
