type paddr = int
type vaddr = int

let page_shift = 12
let page_size = 1 lsl page_shift
let line_shift = 6
let line_size = 1 lsl line_shift

let kib n = n * 1024
let mib n = n * 1024 * 1024
let gib n = n * 1024 * 1024 * 1024

let page_of a = a lsr page_shift
let page_base a = a land lnot (page_size - 1)
let page_offset a = a land (page_size - 1)
let line_of a = a lsr line_shift
let line_base a = a land lnot (line_size - 1)
let is_page_aligned a = a land (page_size - 1) = 0

let align_up a ~alignment =
  assert (alignment > 0 && alignment land (alignment - 1) = 0);
  (a + alignment - 1) land lnot (alignment - 1)

let align_down a ~alignment =
  assert (alignment > 0 && alignment land (alignment - 1) = 0);
  a land lnot (alignment - 1)

let lines_spanned a ~len =
  if len <= 0 then 0 else line_of (a + len - 1) - line_of a + 1

let pp_hex fmt a = Format.fprintf fmt "0x%x" a
