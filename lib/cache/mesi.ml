type state = I | S | E | M

let to_char = function I -> 'I' | S -> 'S' | E -> 'E' | M -> 'M'

(* Constant constructors are immediates, so physical equality decides. *)
let[@inline] equal (a : state) b = a == b

type snoop = No_snoop | Snoop_data | Snoop_invalidate

let on_read ~other =
  match other with
  | M -> (S, S, Snoop_data) (* remote dirty copy demoted; data forwarded *)
  | E -> (S, S, Snoop_data)
  | S -> (S, S, No_snoop)
  | I -> (E, I, No_snoop)

let on_write ~other =
  match other with
  | M | E | S -> (M, I, Snoop_invalidate)
  | I -> (M, I, No_snoop)

let on_upgrade ~other =
  match other with
  | S -> (M, I, Snoop_invalidate)
  | M | E ->
      (* Cannot happen in a consistent model (we hold S, so the other
         node cannot hold E/M); treated as an invalidating upgrade. *)
      (M, I, Snoop_invalidate)
  | I -> (M, I, No_snoop)
