module Addr = Stramash_mem.Addr

type t = {
  alloc_frame : unit -> int;
  mutable page : int; (* current bump page paddr, -1 if none *)
  mutable offset : int;
}

let create ~alloc_frame = { alloc_frame; page = -1; offset = Addr.page_size }

let alloc t ~bytes =
  assert (bytes > 0 && bytes <= Addr.page_size);
  let alignment = if bytes >= Addr.line_size then Addr.line_size else 8 in
  let aligned = Addr.align_up t.offset ~alignment in
  if t.page < 0 || aligned + bytes > Addr.page_size then begin
    t.page <- t.alloc_frame ();
    t.offset <- 0
  end;
  let off = Addr.align_up t.offset ~alignment in
  t.offset <- off + bytes;
  t.page + off

let alloc_line t = alloc t ~bytes:Addr.line_size
