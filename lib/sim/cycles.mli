(** Simulated time, measured in CPU cycles of the canonical clock.

    The paper's big machine pair runs at 2.0/2.1 GHz; we use a single
    canonical frequency for both nodes (documented simplification in
    DESIGN.md §8), so one cycle is one unit of global simulated time. *)

type t = int
(** A cycle count. Always non-negative in well-formed uses. *)

val frequency_ghz : float
(** Canonical core frequency used for cycle/time conversions (2.1 GHz,
    matching the Xeon Gold host of the paper's evaluation). *)

val of_ns : float -> t
(** Nanoseconds to cycles, rounded to nearest. *)

val of_us : float -> t
val to_us : t -> float
val to_ms : t -> float

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit. *)
