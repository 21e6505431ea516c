(** Stramash futex handling (paper §6.5): the remote kernel operates on the
    origin kernel's futex queues *directly* through coherent shared memory
    instead of messaging the origin; waking a thread parked on the other
    kernel costs exactly one cross-ISA IPI. *)

type t

val create : Stramash_kernel.Env.t -> Stramash_fault.t -> t

val wait :
  t ->
  proc:Stramash_kernel.Process.t ->
  thread:Stramash_kernel.Thread.t ->
  uaddr:int ->
  expected:int64 ->
  [ `Block | `Proceed ]

val wait_acting :
  t ->
  actor:Stramash_sim.Node_id.t ->
  proc:Stramash_kernel.Process.t ->
  thread:Stramash_kernel.Thread.t ->
  uaddr:int ->
  expected:int64 ->
  [ `Block | `Proceed ]
(** Same check/enqueue, but performed by [actor] (the un-optimised,
    origin-managed protocol runs it at the origin on the waiter's
    behalf). *)

val wake :
  t ->
  proc:Stramash_kernel.Process.t ->
  thread:Stramash_kernel.Thread.t ->
  threads:Stramash_kernel.Thread.t list ->
  uaddr:int ->
  nwake:int ->
  int list
(** Returns woken tids; cross-node wakes charge one IPI to the waker. *)

val wake_acting :
  t ->
  actor:Stramash_sim.Node_id.t ->
  proc:Stramash_kernel.Process.t ->
  threads:Stramash_kernel.Thread.t list ->
  uaddr:int ->
  nwake:int ->
  int list
