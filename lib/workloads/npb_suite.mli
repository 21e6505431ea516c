(** The shared NPB workload table.

    The single source of truth for "which NPB-like kernels exist and
    which subsets do the harness, bench and CLI run" — bench [--perf] /
    [--domains], the harness's Fig. 9 sweeps, and the CLI's bench lookup
    all resolve names here, so adding a workload is a one-line change. *)

val spec_of_name : string -> Stramash_machine.Spec.t option
(** Full-size spec for a bench name; [None] for unknown names. *)

val all_names : string list
(** Every kernel the table knows ([is cg mg ft ep lu sp]). *)

val fig9_names : string list
(** The paper's plotted quartet ([is cg mg ft]) — also the campaign set. *)

val fig9_set : small:bool -> (string * Stramash_machine.Spec.t) list
(** The quartet with full-size or reduced (unit-test) parameters. *)

val perf_set : unit -> (string * Stramash_machine.Spec.t) list
(** Full-size specs for {!perf_names}. *)
