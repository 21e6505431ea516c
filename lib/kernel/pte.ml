module Node_id = Stramash_sim.Node_id

type flags = {
  present : bool;
  writable : bool;
  user : bool;
  accessed : bool;
  dirty : bool;
  remote_owned : bool;
}

let default_flags =
  { present = true; writable = true; user = true; accessed = false; dirty = false; remote_owned = false }

let bit n = Int64.shift_left 1L n
let test v n = Int64.logand v (bit n) <> 0L
let put v n cond = if cond then Int64.logor v (bit n) else v

(* x86ish: P=0, RW=1, US=2, A=5, D=6, remote(SW)=9; frame at bits 12..51. *)
(* armish: VALID=0, AF=10, nUSER(AP1 inverted)=6, RDONLY(AP2)=7, DBM/dirty=55,
   remote(SW)=58; frame at bits 12..47. Note the inverted write sense. *)

let frame_mask_x86 = 0x000F_FFFF_FFFF_F000L
let frame_mask_arm = 0x0000_FFFF_FFFF_F000L

let encode ~isa ~frame flags =
  let base = Int64.shift_left (Int64.of_int frame) 12 in
  match isa with
  | Node_id.X86 ->
      let v = Int64.logand base frame_mask_x86 in
      let v = put v 0 flags.present in
      let v = put v 1 flags.writable in
      let v = put v 2 flags.user in
      let v = put v 5 flags.accessed in
      let v = put v 6 flags.dirty in
      put v 9 flags.remote_owned
  | Node_id.Arm ->
      let v = Int64.logand base frame_mask_arm in
      let v = put v 0 flags.present in
      let v = put v 7 (not flags.writable) in
      let v = put v 6 (not flags.user) in
      let v = put v 10 flags.accessed in
      let v = put v 55 flags.dirty in
      put v 58 flags.remote_owned

(* Allocation-free decoding for the page walker, which reads one entry
   per level: a present entry's frame or -1, and the write permission. *)
let[@inline] frame_or_absent ~isa v =
  if not (test v 0) then -1
  else
    let mask = match isa with Node_id.X86 -> frame_mask_x86 | Node_id.Arm -> frame_mask_arm in
    Int64.to_int (Int64.shift_right_logical (Int64.logand v mask) 12)

let[@inline] is_writable ~isa v =
  match isa with Node_id.X86 -> test v 1 | Node_id.Arm -> not (test v 7)

let decode ~isa v =
  let frame = frame_or_absent ~isa v in
  if frame < 0 then None
  else
    let writable = is_writable ~isa v in
    Some
      ( frame,
        match isa with
        | Node_id.X86 ->
            {
              present = true;
              writable;
              user = test v 2;
              accessed = test v 5;
              dirty = test v 6;
              remote_owned = test v 9;
            }
        | Node_id.Arm ->
            {
              present = true;
              writable;
              user = not (test v 6);
              accessed = test v 10;
              dirty = test v 55;
              remote_owned = test v 58;
            } )

let not_present = 0L
