(** Machine-readable metrics snapshot: an ordered set of named JSON
    sections combining counter registries, latency histograms, and the
    tracer's cycle-attribution table into one file, written next to the
    existing [BENCH_*.json] outputs by [--metrics-json]. *)

module Metrics = Stramash_sim.Metrics

type t

val create : unit -> t

val add_json : t -> string -> Json.t -> unit
val add_counters : t -> string -> (string * int) list -> unit
val add_registry : t -> string -> Metrics.registry -> unit

val add_trace : t -> Trace.t -> unit
(** Adds the tracer's attribution table as a ["trace"] section. *)

val add_causal : t -> Trace.t -> unit
(** Adds the causal sections: ["blocked_on_remote"] (per-node cycles
    serialized behind remote replies, by subsystem) and ["critical_path"]
    (flow counts plus the per-(subsystem, op) critical-path blame table
    assembled from the tracer's surviving events). *)

val sections : t -> (string * Json.t) list
(** In insertion order. *)

val to_string : t -> string

val of_json : Json.t -> (t, string) result
(** Rebuild a snapshot from parsed JSON (round-trip inverse of
    {!to_json}). *)

val section : t -> string -> Json.t option

val counters : t -> string -> (string * int) list
(** Integer fields of a counters-style section; [[]] when absent. *)
