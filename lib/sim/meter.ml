type t = { mutable cycles : int }

let create () = { cycles = 0 }
let[@inline] add t d = t.cycles <- t.cycles + d
let get t = t.cycles
let set t v = t.cycles <- v
let reset t = t.cycles <- 0

let delta t f =
  let before = t.cycles in
  f ();
  t.cycles - before
