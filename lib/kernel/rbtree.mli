(** Red-black tree with integer keys.

    Linux keeps VMA lists in an rb-tree (the paper notes Stramash-Linux
    still uses the RB-tree, not a maple tree, §6.4); we do the same. Lookup
    entry points accept a [visit] callback fired once per node touched on
    the search path — the remote VMA walker uses it to charge one simulated
    memory access per traversed [struct vm_area_struct]. *)

type 'v t

val create : unit -> 'v t
val size : 'v t -> int
val is_empty : 'v t -> bool

val insert : 'v t -> key:int -> 'v -> unit
(** Replaces the value if the key is present. *)

val remove : 'v t -> key:int -> bool
val find : ?visit:('v -> unit) -> 'v t -> key:int -> 'v option

val find_floor : ?visit:('v -> unit) -> 'v t -> key:int -> (int * 'v) option
(** Greatest binding with key <= the argument. *)

val iter : 'v t -> f:(int -> 'v -> unit) -> unit
(** In key order. *)

val to_list : 'v t -> (int * 'v) list

val check_invariants : 'v t -> (unit, string) result
(** Validates binary-search ordering, red-red absence and black-height
    uniformity; used by the property tests. *)
