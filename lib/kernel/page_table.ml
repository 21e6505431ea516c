module Node_id = Stramash_sim.Node_id
module Addr = Stramash_mem.Addr
module Phys_mem = Stramash_mem.Phys_mem
module Trace = Stramash_obs.Trace

type t = { isa : Node_id.t; root : int }

type io = {
  phys : Phys_mem.t;
  charge_read : int -> unit;
  charge_write : int -> unit;
  alloc_table : unit -> int;
}

let levels = 5
let index_bits = 9
let entries = 1 lsl index_bits

let create ~isa io =
  let root = io.alloc_table () in
  { isa; root }

let isa t = t.isa
let root t = t.root

(* Level [levels-1] is the root, level 0 holds leaf PTEs. *)
let index_at ~level vaddr = (vaddr lsr (Addr.page_shift + (index_bits * level))) land (entries - 1)

let entry_addr table_paddr idx = table_paddr + (idx * 8)

let[@inline] read_entry io paddr =
  io.charge_read paddr;
  Phys_mem.read_u64 io.phys paddr

let write_entry io paddr v =
  io.charge_write paddr;
  Phys_mem.write_u64 io.phys paddr v

(* Descend to the table that holds the leaf entry. [alloc] controls whether
   missing directories are created. Returns the leaf table's paddr, or -1
   when a directory is missing and [alloc] is false. Directory entries use
   the same per-ISA encoding as leaves. *)
let rec descend t io ~level ~table ~vaddr ~alloc =
  if level = 0 then table
  else begin
    let slot = entry_addr table (index_at ~level vaddr) in
    let frame = Pte.frame_or_absent ~isa:t.isa (read_entry io slot) in
    if frame >= 0 then
      descend t io ~level:(level - 1) ~table:(frame lsl Addr.page_shift) ~vaddr ~alloc
    else if not alloc then -1
    else begin
      (* Directory allocation is rare enough to record every time. No
         meter in scope: the event inherits the node and clock of the
         innermost open span (the fault handler driving us). *)
      if Trace.enabled () then
        Trace.instant ~subsys:"page_table" ~op:"alloc_table"
          ~tags:[ ("level", string_of_int level) ]
          ();
      let fresh = io.alloc_table () in
      let entry = Pte.encode ~isa:t.isa ~frame:(fresh lsr Addr.page_shift) Pte.default_flags in
      write_entry io slot entry;
      descend t io ~level:(level - 1) ~table:fresh ~vaddr ~alloc
    end
  end

let descend_from_root t io ~vaddr ~alloc =
  descend t io ~level:(levels - 1) ~table:t.root ~vaddr ~alloc

(* Paddr of the leaf PTE slot, or -1 when a directory is missing. *)
let leaf_slot t io ~vaddr =
  let table = descend_from_root t io ~vaddr ~alloc:false in
  if table < 0 then -1 else entry_addr table (index_at ~level:0 vaddr)

(* Only non-present walks are recorded: hit-path walks run once per
   memory access and would flood the event ring with noise. The misses
   are the ones that turn into faults and cross-ISA traffic. *)
let note_walk_miss () =
  if Trace.enabled () then Trace.instant ~subsys:"page_table" ~op:"walk_miss" ()

let walk t io ~vaddr =
  let slot = leaf_slot t io ~vaddr in
  let result = if slot < 0 then None else Pte.decode ~isa:t.isa (read_entry io slot) in
  if result = None then note_walk_miss ();
  result

let translate t io ~vaddr ~write =
  let slot = leaf_slot t io ~vaddr in
  let raw = if slot < 0 then Pte.not_present else read_entry io slot in
  let frame = Pte.frame_or_absent ~isa:t.isa raw in
  if frame < 0 then begin
    note_walk_miss ();
    -1
  end
  else
    let writable = Pte.is_writable ~isa:t.isa raw in
    if write && not writable then -1 else (frame lsl 1) lor Bool.to_int writable

let leaf_frame leaf = leaf lsr 1
let leaf_writable leaf = leaf land 1 = 1

let upper_levels_present t io ~vaddr = descend_from_root t io ~vaddr ~alloc:false >= 0

let map t io ~vaddr ~frame flags =
  let table = descend_from_root t io ~vaddr ~alloc:true in
  write_entry io (entry_addr table (index_at ~level:0 vaddr)) (Pte.encode ~isa:t.isa ~frame flags)

let set_leaf_if_upper_present t io ~vaddr ~frame flags =
  let slot = leaf_slot t io ~vaddr in
  if slot < 0 then false
  else begin
    write_entry io slot (Pte.encode ~isa:t.isa ~frame flags);
    true
  end

let update_flags t io ~vaddr flags =
  let slot = leaf_slot t io ~vaddr in
  let frame = if slot < 0 then -1 else Pte.frame_or_absent ~isa:t.isa (read_entry io slot) in
  if frame < 0 then false
  else begin
    write_entry io slot (Pte.encode ~isa:t.isa ~frame flags);
    true
  end

let unmap t io ~vaddr =
  let slot = leaf_slot t io ~vaddr in
  let present = slot >= 0 && Pte.frame_or_absent ~isa:t.isa (read_entry io slot) >= 0 in
  if present then write_entry io slot Pte.not_present;
  present

(* Full-tree traversal in ascending vaddr order. Directory entries share
   the leaf encoding, so at levels > 0 a present entry's frame is the next
   table down; at level 0 it is the mapped leaf. Used by checkpointing —
   unlike range walks it needs no VMA metadata, which is exactly what a
   crash may have taken down. *)
let iter_leaves t io ~f =
  let rec go ~level ~table ~va_base =
    for idx = 0 to entries - 1 do
      match Pte.decode ~isa:t.isa (read_entry io (entry_addr table idx)) with
      | None -> ()
      | Some (frame, flags) ->
          let va = va_base lor (idx lsl (Addr.page_shift + (index_bits * level))) in
          if level = 0 then f ~vaddr:va ~frame ~flags
          else go ~level:(level - 1) ~table:(frame lsl Addr.page_shift) ~va_base:va
    done
  in
  go ~level:(levels - 1) ~table:t.root ~va_base:0
