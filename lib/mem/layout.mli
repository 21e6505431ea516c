(** Physical memory layout and hardware models (paper Fig. 3, Fig. 4, §8.1).

    The simulated platform has 8 GB of physical memory:

    - x86 private boot memory: [0, 1.5G)
    - Arm private boot memory: [1.5G, 3G)
    - hole / MMIO:             [3G, 4G)
    - message-ring area:       [4G, 4G+128M)   (§8.2: 128 MB messaging layer)
    - global pool:             [4G+128M, 8G)

    Locality of an address depends on the hardware model (Fig. 3):

    - {b Separated}: each node also owns half of the 4-8G range as local
      memory (x86: [4G,6G), Arm: [6G,8G)); everything else is remote,
      reached over the simulated coherent interconnect.
    - {b Shared}: the whole [4G,8G) range is a CXL-attached pool, remote
      for both nodes; private ranges are local only to their owner.
    - {b Fully shared}: a single memory, local to everyone. *)

type hw_model = Separated | Shared | Fully_shared

val hw_model_to_string : hw_model -> string
val all_hw_models : hw_model list

type region = { lo : Addr.paddr; hi : Addr.paddr }
(** Half-open interval [lo, hi). *)

val region_size : region -> int
val region_contains : region -> Addr.paddr -> bool
val pp_region : Format.formatter -> region -> unit

val x86_private : region
val arm_private : region
val private_region : Stramash_sim.Node_id.t -> region
val message_ring : region
val pool : region
(** Allocatable global pool (excludes the message ring carve-out). *)

type locality = Local | Remote

val locality : hw_model -> node:Stramash_sim.Node_id.t -> Addr.paddr -> locality
val in_message_ring : Addr.paddr -> bool

val home_node : Addr.paddr -> Stramash_sim.Node_id.t option
(** Kernel whose memory controller homes the address: private boot ranges
    belong to their owner, the upper 4-8G pool is split per
    {!pool_half}; [None] for the message ring and the MMIO hole. *)

val total_memory : int
(** 8 GB, as configured in the paper's experiments (§9.2). *)
