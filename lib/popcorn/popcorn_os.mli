(** The Popcorn-Linux personality: a shared-nothing multiple-kernel OS.

    Kernel instances coordinate exclusively through the messaging layer —
    page faults, VMA faults, futex operations and thread migration are all
    request/response protocols against the origin kernel, and user memory
    is kept consistent by DSM page replication ({!Dsm}). This is the
    paper's baseline (§2, §8.2). *)

type t

val create :
  Stramash_kernel.Env.t ->
  Msg_layer.kind ->
  ?notify:Msg_layer.notify_mode ->
  ?tcp:Stramash_interconnect.Tcp_link.t ->
  ?inject:Stramash_fault_inject.Plan.t ->
  unit ->
  t

val env : t -> Stramash_kernel.Env.t
val dsm : t -> Dsm.t
val msg : t -> Msg_layer.t

val handle_fault :
  t ->
  proc:Stramash_kernel.Process.t ->
  node:Stramash_sim.Node_id.t ->
  vaddr:int ->
  write:bool ->
  (unit, Stramash_fault_inject.Fault.error) result

val migrate :
  t ->
  proc:Stramash_kernel.Process.t ->
  thread:Stramash_kernel.Thread.t ->
  dst:Stramash_sim.Node_id.t ->
  point:int ->
  unit
(** Message-based thread migration carrying the architectural state,
    followed by the state transformation on the destination. *)

val futex_wait :
  t ->
  proc:Stramash_kernel.Process.t ->
  thread:Stramash_kernel.Thread.t ->
  uaddr:int ->
  expected:int64 ->
  [ `Block | `Proceed ]
(** Origin-managed: a remote waiter messages the origin kernel, which
    checks the futex word and queues the waiter (paper §6.5). *)

val futex_wake :
  t ->
  proc:Stramash_kernel.Process.t ->
  thread:Stramash_kernel.Thread.t ->
  threads:Stramash_kernel.Thread.t list ->
  uaddr:int ->
  nwake:int ->
  int list
(** Returns the tids woken. Wakes of threads blocked on another kernel
    instance cost an extra one-way message from the origin. *)

val exit_process : t -> proc:Stramash_kernel.Process.t -> unit
(** Tear down a process's DSM state and free every kernel's replicas. *)
