(** Cacheline-granularity microbenchmark (paper §9.2.5, Fig. 12).

    The remote node touches [lines] cache lines (64 B each) in every page
    of an origin-owned buffer. Software DSM must replicate the entire
    4 KB page however little of it is read; hardware coherence moves only
    the touched lines. Sweeping [lines] from 1 to 64 reproduces the
    >300x-to-2x collapse of DSM's overhead. *)

type params = { pages : int; lines : int }

val measure_start : int
val measure_stop : int
val spec : ?pages:int -> lines:int -> unit -> Stramash_machine.Spec.t
