module Addr = Stramash_mem.Addr
module Layout = Stramash_mem.Layout

type region_state = {
  region : Layout.region;
  mutable cursor : int; (* next never-allocated paddr *)
  mutable live : bool; (* false once removed *)
  mutable allocated : int; (* frames currently out *)
}

type t = {
  name : string;
  mutable regions : region_state list;
  recycled : int Stack.t; (* freed frames awaiting reuse *)
  allocated_set : (int, unit) Hashtbl.t;
}

let create ~name = { name; regions = []; recycled = Stack.create (); allocated_set = Hashtbl.create 1024 }

let frames_in r = Layout.region_size r / Addr.page_size

let add_region t region =
  assert (Addr.is_page_aligned region.Layout.lo && Addr.is_page_aligned region.Layout.hi);
  t.regions <- t.regions @ [ { region; cursor = region.Layout.lo; live = true; allocated = 0 } ]

let state_of t paddr =
  List.find_opt (fun rs -> rs.live && Layout.region_contains rs.region paddr) t.regions

let remove_region t region =
  match
    List.find_opt (fun rs -> rs.live && rs.region.Layout.lo = region.Layout.lo && rs.region.Layout.hi = region.Layout.hi) t.regions
  with
  | None -> invalid_arg (t.name ^ ": remove_region: unknown region")
  | Some rs ->
      if rs.allocated > 0 then Error (`Pages_in_use rs.allocated)
      else begin
        rs.live <- false;
        (* Recycled frames from this region are skipped lazily in alloc. *)
        Ok ()
      end

let rec alloc t =
  match Stack.pop_opt t.recycled with
  | Some paddr -> (
      match state_of t paddr with
      | None -> alloc t (* region since removed *)
      | Some rs ->
          rs.allocated <- rs.allocated + 1;
          Hashtbl.replace t.allocated_set paddr ();
          Some paddr)
  | None ->
      let rec scan = function
        | [] -> None
        | rs :: rest ->
            if rs.live && rs.cursor < rs.region.Layout.hi then begin
              let paddr = rs.cursor in
              rs.cursor <- rs.cursor + Addr.page_size;
              rs.allocated <- rs.allocated + 1;
              Hashtbl.replace t.allocated_set paddr ();
              Some paddr
            end
            else scan rest
      in
      scan t.regions

let alloc_exn t =
  match alloc t with
  | Some paddr -> paddr
  | None -> failwith (t.name ^ ": out of physical frames")

let free t paddr =
  if not (Hashtbl.mem t.allocated_set paddr) then
    invalid_arg (Printf.sprintf "%s: free of unallocated frame 0x%x" t.name paddr);
  Hashtbl.remove t.allocated_set paddr;
  (match state_of t paddr with
  | Some rs -> rs.allocated <- rs.allocated - 1
  | None -> () (* region was force-removed; frame just disappears *));
  Stack.push paddr t.recycled

let is_allocated t paddr = Hashtbl.mem t.allocated_set paddr
let owns_address t paddr = state_of t paddr <> None

let total_frames t =
  List.fold_left (fun acc rs -> if rs.live then acc + frames_in rs.region else acc) 0 t.regions

let used_frames t = Hashtbl.length t.allocated_set

let pressure t =
  let total = total_frames t in
  if total = 0 then 1.0 else float_of_int (used_frames t) /. float_of_int total
