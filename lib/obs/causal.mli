(** Causal-flow assembly over traced events: per-flow DAGs, critical-path
    extraction, blame aggregation, tail-exemplar retention, and a
    folded-stack flamegraph export.

    Spans tagged with the same nonzero flow id (see {!Trace}) are grouped
    into one {!flow}; the earliest/widest span is the flow root, and only
    events contained in the root's interval participate (cross-node events
    are synthesized by the instrumentation in requester cycles exactly so
    they anchor — a responder-clock event cannot be placed on the
    requester timeline and is dropped). The critical path tiles the root
    interval: gaps between child spans are the parent's own time, so hop
    cycles always sum to the flow's end-to-end duration. All outputs are
    deterministically ordered: same trace ⇒ byte-identical reports. *)

module Node_id = Stramash_sim.Node_id

type hop = {
  h_node : int;  (** node index the cycles were spent on *)
  h_subsys : string;
  h_op : string;
  h_cycles : int;
}

type flow = {
  f_id : int;
  f_node : int;  (** requester (root) node index *)
  f_start : int;  (** root start cycle *)
  f_cycles : int;  (** end-to-end duration *)
  f_root_subsys : string;
  f_root_op : string;
  f_path : hop list;  (** critical path; cycles sum to [f_cycles] *)
  f_spans : int;  (** span events assembled into the flow *)
}

val flows_of_events : Trace.event list -> flow list
(** Assemble flows from span events (point events and flow id 0 are
    ignored), sorted by flow id. *)

val cross_node_flows : flow list -> flow list
(** Flows whose critical path visits a node other than the requester. *)

val blocked_of_flows : flow list -> (string * int array) list
(** Blocked-on-remote recovered from flows alone (for offline trace
    files): per root subsystem, critical-path cycles each requester node
    spent off-node, sorted by subsystem. *)

type blame_row = {
  b_subsys : string;
  b_op : string;
  b_hops : int;
  b_cycles : int;
  b_node : int array;  (** critical-path cycles per node index *)
}

val blame : flow list -> blame_row list
(** Critical-path cycles aggregated per (subsystem, op), sorted by
    descending cycles then name. *)

val blame_json : blame_row list -> Json.t

(** Bounded retention of complete traces for tail flows only: every
    offered flow's scalar duration is kept, but full traces survive only
    in a top-K pool, so long campaigns stay bounded. *)
module Reservoir : sig
  type t

  val create : ?percentile:float -> ?max_keep:int -> unit -> t
  (** Defaults: [percentile = 0.99], [max_keep = 8].
      @raise Invalid_argument
        unless [0 < percentile < 1] and [max_keep > 0]. *)

  val offer : t -> flow -> unit
  val count : t -> int

  val finalize : t -> int * flow list
  (** [(threshold, exemplars)]: the duration at the configured percentile
      rank over everything offered, and the retained flows at or above it
      (cycles descending, at most [max_keep]). [(0, [])] when empty. *)
end

val folded : Trace.event list -> string
(** Folded-stack flamegraph lines
    (["node;subsys.op;...;subsys.op cycles\n"], self time per stack),
    aggregated and sorted — feed to [flamegraph.pl] or speedscope. *)

val events_of_string : string -> (Trace.event list, string) result
(** Recover events from either sink format: a Chrome trace-event file
    ([--trace]) or JSONL lines. Depth and tags are not recovered; node
    names map back to indices. *)
