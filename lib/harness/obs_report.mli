(** Render a tracer's cycle-attribution table through {!Report} — the
    Fig. 9/10-style "where did the cycles go" breakdown. *)

val blame_report : ?top:int -> Stramash_obs.Causal.blame_row list -> Report.t
(** Critical-path blame table; [top] keeps only the first N rows
    (0 = all). *)

val print_blocked_rows : Format.formatter -> (string * int array) list -> unit
(** One summary line of blocked-on-remote cycles (per node, with the
    per-subsystem split); silent on []. *)

val print : ?fastpath:(string * int) list -> Format.formatter -> Stramash_obs.Trace.t -> unit
(** The attribution table plus the recorded/dropped and per-node
    top-span-cycle summary line, per-subsystem ring-drop counts when any,
    and the blocked-on-remote summary when any. [fastpath] (labelled L0
    counters, e.g. from {!Stramash_machine.Runner.fastpath_counters})
    appends a fast-path hit-rate summary when non-empty. *)
