(** NPB cross-ISA migration experiments: Fig. 9 (normalised runtimes per OS
    and hardware model), Table 3 (messages and replicated pages), Fig. 10
    (L3-size sensitivity for IS vs CG). *)

val fig9 : Format.formatter -> unit
val table3 : Format.formatter -> unit
val fig10 : Format.formatter -> unit

val fig9_extended : Format.formatter -> unit
(** The same sweep over the extension kernels the paper does not plot
    (EP, LU-like, SP-like) — "amongst others" in §8.3. *)

val fig9_breakdown : Format.formatter -> unit
(** The §9.2.1 overhead breakdown: INST (instructions at CPI 1), user
    memory stalls (Local/Remote), and the MSG/OS remainder, per benchmark
    for Popcorn-SHM vs Stramash on the Shared model. *)

type run_summary = {
  bench : string;
  config : string;
  wall : int;
  messages : int;
  replicated : int;
}

val benchmarks : small:bool -> (string * Stramash_machine.Spec.t) list
(** The NPB specs the sweep runs ([small] = reduced classes) — shared with
    the fast-path equivalence tests and the perf-bench harness. *)
