type core = Cortex_a72 | Thunderx2 | E5_2620 | Xeon_gold

type t = { l1 : int; l2 : int; l3 : int option; mem : int; remote_mem : int }

(* Paper Table 2 (CXL latency for remote memory, after Sharma 2023). *)
let of_core = function
  | Cortex_a72 -> { l1 = 4; l2 = 9; l3 = None; mem = 300; remote_mem = 780 }
  | Thunderx2 -> { l1 = 4; l2 = 9; l3 = Some 30; mem = 300; remote_mem = 620 }
  | E5_2620 -> { l1 = 4; l2 = 12; l3 = Some 38; mem = 300; remote_mem = 640 }
  | Xeon_gold -> { l1 = 4; l2 = 14; l3 = Some 50; mem = 300; remote_mem = 640 }

let core_name = function
  | Cortex_a72 -> "Cortex-A72"
  | Thunderx2 -> "ThunderX2"
  | E5_2620 -> "E5-2620"
  | Xeon_gold -> "Xeon Gold"

let all_cores = [ Cortex_a72; Thunderx2; E5_2620; Xeon_gold ]

let default_for_node = function
  | Stramash_sim.Node_id.X86 -> of_core Xeon_gold
  | Stramash_sim.Node_id.Arm -> of_core Thunderx2
