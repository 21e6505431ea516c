module Layout = Stramash_mem.Layout

let direct_map_base = 0x8000_0000_00 (* 512 GB mark: clear of user space *)

let kernel_vaddr_of_paddr paddr =
  assert (paddr >= 0 && paddr < Layout.total_memory);
  direct_map_base + paddr

let is_fused_pointer vaddr =
  vaddr >= direct_map_base && vaddr < direct_map_base + Layout.total_memory

let paddr_of_kernel_vaddr vaddr =
  if not (is_fused_pointer vaddr) then
    invalid_arg (Printf.sprintf "Fused_vas: 0x%x outside the fused window" vaddr);
  vaddr - direct_map_base
