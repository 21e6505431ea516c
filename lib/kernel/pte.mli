(** Page-table entry encodings — deliberately different per ISA.

    A fused-kernel OS cannot share page tables as-is because the formats
    are architecture-dependent (paper §5, §6.4); accessor functions (the
    "remote CPU driver") must encode/decode the *other* kernel's format.
    Our two formats differ in flag positions and, pointedly, in the sense
    of the write-permission bit (armish uses a read-only bit, as AArch64's
    AP[2] does, while x86ish uses a writable bit). *)

type flags = {
  present : bool;
  writable : bool;
  user : bool;
  accessed : bool;
  dirty : bool;
  remote_owned : bool; (* Stramash: set on PTEs installed by the other kernel *)
}

val default_flags : flags
(** present, writable, user; all status bits clear. *)

val encode : isa:Stramash_sim.Node_id.t -> frame:int -> flags -> int64
(** [frame] is a physical page number. *)

val decode : isa:Stramash_sim.Node_id.t -> int64 -> (int * flags) option
(** [None] when the entry is not present. *)

val frame_or_absent : isa:Stramash_sim.Node_id.t -> int64 -> int
(** The frame of a present entry, or -1; allocation-free. *)

val is_writable : isa:Stramash_sim.Node_id.t -> int64 -> bool
(** The entry's write permission (meaningful for present entries). *)

val not_present : int64
(** The all-zeroes entry, not present under both encodings. *)
