(* stramash_cli — command-line front end for the Stramash reproduction.

   Subcommands:
     list                         show available experiments and workloads
     experiment <id>...           regenerate specific tables/figures
     npb <bench>                  run one NPB-like kernel under one config
     redis                        run the network-serving model
     futex <loops>                run the futex microbenchmark
     faults                       run the fault-injection campaign + audit
     chaos                        run the node-failure chaos campaign
     place                        run the page-placement campaign
     gray                         run the gray-failure breaker-on/off campaign
     serve                        run the open-loop serving campaign (tail SLOs)
     machine                      describe the simulated platform *)

open Cmdliner
module H = Stramash_harness
module W = Stramash_workloads
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module Layout = Stramash_mem.Layout
module Node_id = Stramash_sim.Node_id
module Cycles = Stramash_sim.Cycles
module Metrics = Stramash_sim.Metrics
module Plan = Stramash_fault_inject.Plan
module Cache_sim = Stramash_cache.Cache_sim

let fmt = Format.std_formatter

(* ---------- shared arguments ---------- *)

let os_conv =
  let parse = function
    | "vanilla" -> Ok Machine.Vanilla
    | "popcorn-shm" -> Ok Machine.Popcorn_shm
    | "popcorn-tcp" -> Ok Machine.Popcorn_tcp
    | "stramash" -> Ok Machine.Stramash_kernel_os
    | "stramash-nofutexopt" -> Ok Machine.Stramash_no_futex_opt
    | s -> Error (`Msg (Printf.sprintf "unknown OS personality %S" s))
  in
  Arg.conv (parse, fun ppf os -> Format.pp_print_string ppf (Machine.os_choice_name os))

let hw_conv =
  let parse = function
    | "separated" -> Ok Layout.Separated
    | "shared" -> Ok Layout.Shared
    | "fully-shared" -> Ok Layout.Fully_shared
    | s -> Error (`Msg (Printf.sprintf "unknown hardware model %S" s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Layout.hw_model_to_string m))

let os_arg =
  Arg.(
    value
    & opt os_conv Machine.Stramash_kernel_os
    & info [ "o"; "os" ] ~docv:"OS"
        ~doc:"OS personality: vanilla | popcorn-shm | popcorn-tcp | stramash | stramash-nofutexopt")

let hw_arg =
  Arg.(
    value
    & opt hw_conv Layout.Shared
    & info [ "m"; "model" ] ~docv:"MODEL" ~doc:"Hardware model: separated | shared | fully-shared")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the artifact-style per-node dump")

(* Fast-path engine selection: the default Fast mode and the Reference
   engine are cycle-identical by construction; --paranoid proves it on the
   actual run. *)
let paranoid_arg =
  Arg.(
    value & flag
    & info [ "paranoid" ]
        ~doc:
          "Cross-check every fast-path answer against the reference engine and audit cache/memory \
           invariants at scheduling-quantum boundaries; the run fails on the first divergence in \
           value, latency, or coherence state")

let reference_arg =
  Arg.(
    value & flag
    & info [ "reference" ]
        ~doc:"Disable the fast-path layers and run the pre-fast-path reference engine (baselines)")

let cache_mode_term =
  Term.(
    const (fun paranoid reference ->
        if paranoid then Cache_sim.Paranoid
        else if reference then Cache_sim.Reference
        else Cache_sim.Fast)
    $ paranoid_arg $ reference_arg)

(* Bench names resolve through the shared NPB table, the same one the
   bench harness's --perf/--domains sweeps and CI run. *)
let spec_of_bench = W.Npb_suite.spec_of_name

(* ---------- observability (--trace / --metrics-json / --trace-filter) ---------- *)

module Obs = Stramash_obs
module Trace = Stramash_obs.Trace

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a cycle-timestamped trace of the run to $(docv): Chrome trace-event JSON \
           (open in Perfetto or chrome://tracing), or a JSONL event stream when $(docv) \
           ends in .jsonl")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:"Write a machine-readable metrics snapshot (cycle attribution + counters) to $(docv)")

let filter_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-filter" ] ~docv:"SUBSYS"
        ~doc:
          "Comma-separated subsystems to restrict tracing to (e.g. msg,ipi,futex); \
           default records every subsystem")

let obs_term = Term.(const (fun t m f -> (t, m, f)) $ trace_arg $ metrics_arg $ filter_arg)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Fail before the (possibly minutes-long) run, not after it. *)
let check_writable = function
  | None -> true
  | Some path -> (
      match open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path with
      | oc ->
          close_out oc;
          true
      | exception Sys_error msg ->
          Format.eprintf "stramash_cli: cannot write output file: %s@." msg;
          false)

(* Install a tracer for the duration of [f] when either output flag is
   given, then render the sinks. Tracing stays completely off otherwise. *)
let run_with_obs (trace_file, metrics_file, filter) ?(extra = fun (_ : Obs.Snapshot.t) -> ())
    ?(fastpath = fun () -> []) f =
  match (trace_file, metrics_file) with
  | None, None -> f ()
  | _ when not (check_writable trace_file && check_writable metrics_file) -> 1
  | _ ->
      let filter =
        match filter with
        | None -> []
        | Some s ->
            String.split_on_char ',' s |> List.map String.trim
            |> List.filter (fun x -> x <> "")
      in
      let tracer = Trace.create ~filter () in
      Trace.install tracer;
      let finish () =
        Trace.uninstall ();
        (match trace_file with
        | Some path ->
            let data =
              if Filename.check_suffix path ".jsonl" then Trace.jsonl_string tracer
              else Trace.chrome_string tracer
            in
            write_file path data;
            Format.fprintf fmt "trace: %s (%d events recorded, %d dropped)@." path
              (Trace.recorded tracer) (Trace.dropped tracer)
        | None -> ());
        (match metrics_file with
        | Some path ->
            let snap = Obs.Snapshot.create () in
            Obs.Snapshot.add_trace snap tracer;
            Obs.Snapshot.add_causal snap tracer;
            extra snap;
            write_file path (Obs.Snapshot.to_string snap);
            Format.fprintf fmt "metrics: %s@." path
        | None -> ());
        H.Obs_report.print ~fastpath:(fastpath ()) fmt tracer
      in
      (match f () with
      | code ->
          finish ();
          code
      | exception e ->
          Trace.uninstall ();
          raise e)

(* ---------- list ---------- *)

let list_cmd =
  let run () =
    Format.fprintf fmt "Experiments (run with `stramash_cli experiment <id>`):@.";
    List.iter
      (fun e -> Format.fprintf fmt "  %-10s %s@." e.H.Experiments.id e.H.Experiments.title)
      H.Experiments.all;
    Format.fprintf fmt "@.NPB-like workloads (run with `stramash_cli npb <name>`):@.";
    Format.fprintf fmt "  %s@." (String.concat " " W.Npb_suite.all_names);
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List experiments and workloads") Term.(const run $ const ())

(* ---------- experiment ---------- *)

let experiment_cmd =
  let ids_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (see `list`)")
  in
  let run ids obs =
    run_with_obs obs (fun () ->
        let rec go = function
          | [] -> 0
          | id :: rest -> (
              match H.Experiments.find id with
              | Some e ->
                  Format.fprintf fmt "@.=== %s: %s ===@." e.H.Experiments.id e.H.Experiments.title;
                  e.H.Experiments.run fmt;
                  go rest
              | None ->
                  Format.fprintf fmt "unknown experiment %s (try `stramash_cli list`)@." id;
                  1)
        in
        go ids)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate one or more of the paper's tables/figures")
    Term.(const run $ ids_arg $ obs_term)

(* ---------- npb ---------- *)

let npb_cmd =
  let bench_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"BENCH" ~doc:"is | cg | mg | ft | ep | lu | sp")
  in
  let run bench os hw_model verbose cache_mode obs =
    match spec_of_bench bench with
    | None ->
        Format.fprintf fmt "unknown benchmark %s@." bench;
        1
    | Some spec ->
        let last_result = ref None in
        let extra snap =
          match !last_result with
          | None -> ()
          | Some result ->
              Obs.Snapshot.add_counters snap "node_cycles"
                (List.map
                   (fun node ->
                     ( Node_id.to_string node,
                       result.Runner.node_cycles.(Node_id.index node) ))
                   Node_id.all);
              Obs.Snapshot.add_registry snap "cache" result.Runner.cache;
              Obs.Snapshot.add_counters snap "fastpath" (Runner.fastpath_counters result)
        in
        let fastpath () =
          match !last_result with None -> [] | Some r -> Runner.fastpath_counters r
        in
        run_with_obs obs ~extra ~fastpath (fun () ->
            let machine =
              Machine.create { Machine.default_config with os; hw_model; cache_mode }
            in
            let proc, thread = Machine.load machine spec in
            let result = Runner.run machine proc thread spec in
            last_result := Some result;
            Format.fprintf fmt
              "%s on %s/%s: wall %.3f ms, %d instructions, %d messages, %d replicated pages@."
              bench (Machine.os_choice_name os)
              (Layout.hw_model_to_string hw_model)
              (Cycles.to_ms result.Runner.wall_cycles)
              result.Runner.instructions result.Runner.messages result.Runner.replicated_pages;
            (if cache_mode <> Cache_sim.Reference then
               let hits = Array.fold_left ( + ) 0 result.Runner.ext.Runner.l0_hits in
               let total = hits + Array.fold_left ( + ) 0 result.Runner.ext.Runner.l0_misses in
               if total > 0 then
                 Format.fprintf fmt "fast-path L0: %d of %d accesses (%.1f%%)%s@." hits total
                   (100.0 *. float_of_int hits /. float_of_int total)
                   (if cache_mode = Cache_sim.Paranoid then "; paranoid cross-check passed" else ""));
            if verbose then Runner.pp_result fmt result;
            0)
  in
  Cmd.v
    (Cmd.info "npb" ~doc:"Run one NPB-like kernel with cross-ISA migration")
    Term.(const run $ bench_arg $ os_arg $ hw_arg $ verbose_arg $ cache_mode_term $ obs_term)

(* ---------- redis ---------- *)

let redis_cmd =
  let requests_arg =
    Arg.(value & opt int 10_000 & info [ "n"; "requests" ] ~docv:"N" ~doc:"Requests per op")
  in
  let run os requests obs =
    run_with_obs obs (fun () ->
        match os with
        | Machine.Vanilla ->
            Format.fprintf fmt "the redis model needs a migratable OS personality@.";
            1
        | _ ->
            List.iter
              (fun (r : W.Redis.result) ->
                Format.fprintf fmt "%-6s %10.0f cycles/request (%.2f us)@."
                  (W.Redis.op_name r.W.Redis.op) r.W.Redis.cycles_per_request
                  (Cycles.to_us (int_of_float r.W.Redis.cycles_per_request)))
              (W.Redis.run ~os ~requests ());
            0)
  in
  Cmd.v
    (Cmd.info "redis" ~doc:"Run the Redis-like network-serving model")
    Term.(const run $ os_arg $ requests_arg $ obs_term)

(* ---------- futex ---------- *)

let futex_cmd =
  let loops_arg = Arg.(value & pos 0 int 1000 & info [] ~docv:"LOOPS" ~doc:"Lock/unlock loops") in
  let run loops obs =
    run_with_obs obs (fun () ->
        List.iter
          (fun (label, wall) -> Format.fprintf fmt "%-34s %10.3f ms@." label (Cycles.to_ms wall))
          (H.Micro_experiments.fig13_walls ~loops);
        0)
  in
  Cmd.v
    (Cmd.info "futex" ~doc:"Run the futex microbenchmark")
    Term.(const run $ loops_arg $ obs_term)

(* ---------- campaign plumbing (faults / chaos / place / gray / scrub / serve) ---------- *)

module Campaign = H.Campaign

(* Every campaign subcommand shares one contract: exit codes 0 = campaign
   ran clean, 1 = invariant violation or unrecovered failure, 2 = unusable
   arguments. Argument errors fail fast with a message on stderr — before
   observability sinks are installed or a possibly minutes-long run
   starts. *)
let usage_error msg =
  Format.kfprintf
    (fun _ -> Campaign.exit_code Campaign.Unknown_bench)
    Format.err_formatter (msg ^^ "@.")

let campaign_bench_arg =
  Arg.(value & opt string "is" & info [ "b"; "bench" ] ~docv:"BENCH" ~doc:"is | cg | mg | ft")

(* The NPB campaigns' guard: a known bench and non-negative counts. *)
let guard_campaign ~campaign ?(counts = []) bench k =
  if not (List.mem bench Campaign.benches) then
    usage_error "unknown benchmark %s (%s campaign runs %s)" bench campaign
      (String.concat " | " Campaign.benches)
  else
    match List.find_opt (fun (_, n) -> n < 0) counts with
    | Some (flag, n) -> usage_error "%s: --%s must be >= 0 (got %d)" campaign flag n
    | None -> k ()

let guard_plan_config config k =
  match Plan.validate config with
  | Ok () -> k ()
  | Error msg -> usage_error "invalid fault-plan config: %s" msg

type soak = { cells : int; domains : int; json : string option }

let soak_term ~doc =
  let cells = Arg.(value & opt int 1 & info [ "soak" ] ~docv:"CELLS" ~doc) in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"D"
         ~doc:"Host domains to spread soak cells across. Cell outputs are buffered and emitted \
               in cell order, so the soak's output and verdicts are byte-identical for any $(docv)")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "soak-json" ] ~docv:"FILE"
         ~doc:"Write the per-cell soak verdicts as JSON to $(docv) (deterministic: contains no \
               timings or host facts, so 1-domain and N-domain soaks write identical files)")
  in
  Term.(const (fun cells domains json -> { cells; domains; json }) $ cells $ domains $ json)

(* Every campaign's JSON snapshot echoes the plan seed and the config
   fingerprint, so any output file traces back to its exact parameters:
   taken from the latest registry of an armed fault plan, else from the
   campaign seed and the default (unarmed) config. *)
let add_campaign_stamp snap ~seed latest_first =
  let armed (_, reg) = List.mem "plan.seed" (Metrics.names reg) in
  let seed, fingerprint =
    match List.find_opt armed latest_first with
    | Some (_, reg) -> (Metrics.get reg "plan.seed", Metrics.get reg "plan.config_fingerprint")
    | None -> (Int64.to_int seed, Plan.config_fingerprint Plan.default)
  in
  Obs.Snapshot.add_counters snap "campaign" [ ("seed", seed); ("config_fingerprint", fingerprint) ]

let write_soak_json path ~name ~header (verdict, cells) =
  let module Json = Obs.Json in
  let verdict_json v = Json.String (Campaign.verdict_to_string v) in
  let cell (i, seed, v) =
    Json.Obj
      [ ("cell", Json.Int i); ("seed", Json.Int (Int64.to_int seed)); ("verdict", verdict_json v) ]
  in
  let json =
    Json.Obj
      ((("schema", Json.String (Printf.sprintf "stramash-%s-soak/1" name)) :: header)
      @ [ ("cells", Json.List (List.map cell cells)); ("verdict", verdict_json verdict) ])
  in
  write_file path (Json.to_string json ^ "\n");
  Format.fprintf fmt "soak json: %s@." path

(* One runner for every campaign subcommand. With [~soak:(opts,
   json_header, header, cell)] and any of --soak > 1, --domains > 1 or
   --soak-json set, it runs [cell] as a {!Campaign.soak} under the text
   line [header cells] and writes the verdicts under the
   [stramash-<name>-soak/1] schema with the [json_header] fields;
   otherwise [single] runs once under the observability sinks, its
   labelled registries and the campaign stamp folded into the
   --metrics-json snapshot. *)
let run_campaign ~name ~seed ~obs ?soak
    (single : ?on_metrics:(label:string -> Metrics.registry -> unit) -> unit -> Campaign.verdict) =
  match soak with
  | Some (s, _, _, _) when s.cells < 1 || s.domains < 1 ->
      usage_error "%s: --soak and --domains must be >= 1" name
  | Some (s, json_header, header, cell) when s.cells > 1 || s.domains > 1 || s.json <> None ->
      (* Cells render into private buffers; the process-global tracer
         cannot be shared across them. *)
      let trace_file, metrics_file, _ = obs in
      if trace_file <> None || metrics_file <> None then
        usage_error
          "%s: --trace/--metrics-json capture one campaign through the process-global tracer \
           and cannot be combined with a soak (--soak/--domains)"
          name
      else if not (check_writable s.json) then Campaign.exit_code Campaign.Unknown_bench
      else begin
        let ((verdict, _) as result) =
          Campaign.soak fmt ~header:(header s.cells) ~seed ~cells:s.cells ~domains:s.domains cell
        in
        Option.iter (fun path -> write_soak_json path ~name ~header:json_header result) s.json;
        Campaign.exit_code verdict
      end
  | _ ->
      let registries = ref [] in
      let extra snap =
        List.iter
          (fun (label, reg) -> Obs.Snapshot.add_registry snap label reg)
          (List.rev !registries);
        add_campaign_stamp snap ~seed !registries
      in
      run_with_obs obs ~extra (fun () ->
          Campaign.exit_code
            (single ~on_metrics:(fun ~label reg -> registries := (label, reg) :: !registries) ()))

(* ---------- faults ---------- *)

let faults_cmd =
  let seed_arg =
    Arg.(value & opt int64 0xC0FFEEL & info [ "s"; "seed" ] ~docv:"SEED"
         ~doc:"Machine seed; the fault plan derives from it, so the same seed replays the same faults")
  in
  let rate name doc default =
    Arg.(value & opt float default & info [ name ] ~docv:"RATE" ~doc)
  in
  let drop_arg = rate "drop-rate" "Message-drop probability per transmission attempt" 0.05 in
  let ipi_arg = rate "ipi-loss" "IPI loss (and jitter) probability" 0.02 in
  let walk_arg = rate "walk-fail" "Transient remote PTE read-failure probability" 0.02 in
  let ptl_arg = rate "ptl-timeout" "Page-table-lock acquisition timeout probability" 0.01 in
  let alloc_arg = rate "alloc-fail" "Injected frame-allocator exhaustion probability" 0.005 in
  let run seed bench drop ipi walk ptl alloc obs =
    guard_campaign ~campaign:"faults" bench @@ fun () ->
    let config =
      H.Fault_experiments.plan_config ~drop_rate:drop ~ipi_loss:ipi ~walk_fail:walk
        ~ptl_timeout:ptl ~alloc_fail:alloc ()
    in
    guard_plan_config config @@ fun () ->
    run_campaign ~name:"faults" ~seed ~obs (H.Fault_experiments.campaign fmt ~seed ~bench ~config)
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Run a deterministic fault-injection campaign and audit kernel invariants")
    Term.(
      const run $ seed_arg $ campaign_bench_arg $ drop_arg $ ipi_arg $ walk_arg $ ptl_arg
      $ alloc_arg $ obs_term)

(* ---------- chaos ---------- *)

let chaos_cmd =
  let seed_arg =
    Arg.(value & opt int64 0xC4A05L & info [ "s"; "seed" ] ~docv:"SEED"
         ~doc:"Campaign seed; schedule jitter and the machine both derive from it, so the same \
               seed replays the same kills, restarts, and recoveries byte-for-byte")
  in
  let kills_arg =
    Arg.(value & opt int 3 & info [ "k"; "kills" ] ~docv:"N"
         ~doc:"Kill/restart cycles to inject, alternating between the two kernel instances")
  in
  let downtime_arg =
    Arg.(value & opt int H.Chaos_experiments.default_downtime
         & info [ "d"; "downtime" ] ~docv:"CYCLES"
             ~doc:"Cycles a killed node stays down before restarting (clamped to half the kill gap)")
  in
  let placement_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "placement" ] ~docv:"POLICY"
          ~doc:
            "Attach a page-placement engine with this policy (static-stramash | static-shm | \
             adaptive) to both the baseline and the chaos run, so degraded replica collapses \
             and restart reconciles happen under the campaign's audits")
  in
  let soak_doc =
    "Run $(docv) independent campaign cells at derived seeds (seed, seed+1, ...); the soak \
     verdict is the worst across cells"
  in
  let run seed bench kills downtime cache_mode placement soak obs =
    guard_campaign ~campaign:"chaos" ~counts:[ ("kills", kills) ] bench @@ fun () ->
    let policy = Option.map Stramash_placement.Policy.of_string placement in
    match (placement, policy) with
    | Some p, Some None ->
        usage_error "unknown placement policy %s (static-stramash | static-shm | adaptive)" p
    | _ ->
        let placement = Option.join policy in
        let campaign fmt ~seed =
          H.Chaos_experiments.campaign fmt ~seed ~bench ~kills ~downtime ~cache_mode ?placement
        in
        run_campaign ~name:"chaos" ~seed ~obs
          ~soak:
            ( soak,
              [ ("bench", Obs.Json.String bench); ("kills", Obs.Json.Int kills) ],
              (fun cells ->
                Printf.sprintf "chaos soak: bench=%s cells=%d base seed=%Ld" bench cells seed),
              fun fmt seed -> campaign fmt ~seed () )
          (campaign fmt ~seed)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a deterministic node-failure chaos campaign: crash-stop kernel kills, \
          degraded-mode fallback, checkpoint/restore recovery, and invariant audits")
    Term.(
      const run $ seed_arg $ campaign_bench_arg $ kills_arg $ downtime_arg $ cache_mode_term
      $ placement_arg $ soak_term ~doc:soak_doc $ obs_term)

(* ---------- place ---------- *)

let place_cmd =
  let seed_arg =
    Arg.(value & opt int64 0x91ACEL & info [ "s"; "seed" ] ~docv:"SEED"
         ~doc:"Machine seed; placement decisions derive from the seeded run, so the same seed \
               replays the same replicate/collapse/migrate stream byte-for-byte")
  in
  let policy_conv =
    let parse s =
      match Stramash_placement.Policy.of_string s with
      | Some p -> Ok p
      | None -> Error (`Msg (Printf.sprintf "unknown placement policy %S" s))
    in
    Arg.conv
      (parse, fun ppf p -> Format.pp_print_string ppf (Stramash_placement.Policy.to_string p))
  in
  let policy_arg =
    Arg.(
      value
      & opt policy_conv Stramash_placement.Policy.Adaptive
      & info [ "p"; "policy" ] ~docv:"POLICY"
          ~doc:"Placement policy: static-stramash | static-shm | adaptive")
  in
  let epoch_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "e"; "epoch" ] ~docv:"QUANTA"
          ~doc:"Scheduling quanta per placement epoch (default: engine default)")
  in
  let run seed bench policy epoch cache_mode obs =
    guard_campaign ~campaign:"placement" bench @@ fun () ->
    run_campaign ~name:"place" ~seed ~obs
      (H.Placement_experiments.campaign fmt ~seed ~bench ~policy ?epoch ~cache_mode)
  in
  Cmd.v
    (Cmd.info "place"
       ~doc:
         "Run the page-placement campaign: a seeded policy run with kernel invariant audits, a \
          determinism replay, and a Paranoid-engine cross-check")
    Term.(
      const run $ seed_arg $ campaign_bench_arg $ policy_arg $ epoch_arg $ cache_mode_term
      $ obs_term)

(* ---------- gray ---------- *)

let gray_cmd =
  let seed_arg =
    Arg.(value & opt int64 0x64A7L & info [ "s"; "seed" ] ~docv:"SEED"
         ~doc:"Campaign seed; the gray schedule's jitter and both machines derive from it, so \
               the same seed replays the same slow-downs, flaps, and breaker decisions \
               byte-for-byte")
  in
  let factor_arg =
    Arg.(value & opt float H.Gray_experiments.default_slow_factor
         & info [ "f"; "factor" ] ~docv:"FACTOR"
             ~doc:"Service-time inflation inside the slow-down window (>= 1.0)")
  in
  let run seed bench factor cache_mode obs =
    guard_campaign ~campaign:"gray" bench @@ fun () ->
    guard_plan_config (H.Gray_experiments.probe_config ~factor) @@ fun () ->
    run_campaign ~name:"gray" ~seed ~obs
      (H.Gray_experiments.campaign fmt ~seed ~bench ~factor ~cache_mode)
  in
  Cmd.v
    (Cmd.info "gray"
       ~doc:
         "Run a deterministic gray-failure campaign: a slow-but-alive origin node (latency \
          inflation, link flaps, PTL stalls), executed breaker-off then breaker-on, with \
          per-operation latency percentiles comparing the two")
    Term.(const run $ seed_arg $ campaign_bench_arg $ factor_arg $ cache_mode_term $ obs_term)

(* ---------- scrub ---------- *)

let scrub_cmd =
  let seed_arg =
    Arg.(value & opt int64 0x5DCL & info [ "s"; "seed" ] ~docv:"SEED"
         ~doc:"Campaign seed; the corruption schedule, any kill schedule, and the machine all \
               derive from it, so the same seed replays the same flips, detections, and \
               repairs byte-for-byte")
  in
  let flips_arg =
    Arg.(value & opt int H.Integrity_experiments.default_flips
         & info [ "f"; "flips" ] ~docv:"N"
             ~doc:"Page bit-flip injection events to schedule across the run")
  in
  let msg_rate_arg =
    Arg.(value & opt float H.Integrity_experiments.default_msg_rate
         & info [ "msg-rate" ] ~docv:"RATE"
             ~doc:"Per-message payload-corruption probability (half of these truncate instead \
                   of flipping bytes); detected by the CRC32 frame and repaired by retransmit")
  in
  let pte_rate_arg =
    Arg.(value & opt float H.Integrity_experiments.default_pte_rate
         & info [ "pte-rate" ] ~docv:"RATE"
             ~doc:"Per-install stale-PTE corruption probability in the remote walker; detected \
                   by the verify-after-install read-back and repaired by reinstall")
  in
  let kills_arg =
    Arg.(value & opt int 0 & info [ "k"; "kills" ] ~docv:"N"
         ~doc:"Kill/restart cycles to fold into the same plan; every death's checkpoint is \
               torn, proving the versioned-header rejection and the shadow fallback")
  in
  let soak_doc =
    "Run $(docv) independent campaign cells at derived seeds (seed, seed+1, ...); cells default \
     to one torn-checkpoint kill each, composing the corruption and kill/restart schedules; the \
     soak verdict is the worst across cells"
  in
  let run seed bench flips msg_rate pte_rate kills cache_mode soak obs =
    guard_campaign ~campaign:"scrub" ~counts:[ ("flips", flips); ("kills", kills) ] bench
    @@ fun () ->
    guard_plan_config (H.Integrity_experiments.probe_config ~flips ~msg_rate ~pte_rate)
    @@ fun () ->
    let campaign fmt ~seed ~kills =
      H.Integrity_experiments.campaign fmt ~seed ~bench ~flips ~msg_rate ~pte_rate ~kills
        ~cache_mode
    in
    (* soak cells carry at least one torn-checkpoint kill each *)
    let soak_kills = max 1 kills in
    run_campaign ~name:"scrub" ~seed ~obs
      ~soak:
        ( soak,
          [
            ("bench", Obs.Json.String bench);
            ("flips", Obs.Json.Int flips);
            ("kills", Obs.Json.Int soak_kills);
          ],
          (fun cells ->
            Printf.sprintf "scrub soak: bench=%s cells=%d base seed=%Ld kills/cell=%d" bench cells
              seed soak_kills),
          fun fmt seed -> campaign fmt ~seed ~kills:soak_kills () )
      (campaign fmt ~seed ~kills)
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Run a deterministic silent-data-corruption campaign: seeded page bit flips, message \
          corruption, stale PTE installs and torn checkpoints, detected by CRC framing, a \
          background page scrubber and verify-after-install, and healed by replica-backed \
          repair, retransmit, and checkpoint fallback")
    Term.(
      const run $ seed_arg $ campaign_bench_arg $ flips_arg $ msg_rate_arg $ pte_rate_arg
      $ kills_arg $ cache_mode_term $ soak_term ~doc:soak_doc $ obs_term)

(* ---------- serve (open-loop serving campaign) ---------- *)

let serve_cmd =
  let module Serve = Stramash_serve.Serve in
  let seed_arg =
    Arg.(value & opt int64 0x5E12E5L & info [ "s"; "seed" ] ~docv:"SEED"
         ~doc:"Campaign seed; the arrival schedule, key stream, fault schedules and machine all \
               derive from it, so the same seed replays the same campaign byte-for-byte")
  in
  let keys_arg =
    Arg.(value & opt int (1 lsl 20) & info [ "K"; "keys" ] ~docv:"N"
         ~doc:"Keyspace size (64 B slots in a real process segment; default 1 Mi keys)")
  in
  let theta_arg =
    Arg.(value & opt float 0.99 & info [ "theta" ] ~docv:"T"
         ~doc:"Zipfian popularity exponent (> 0; rank 0 is the hottest key)")
  in
  let rate_arg =
    Arg.(value & opt float 20_000.0 & info [ "r"; "rate" ] ~docv:"RPS"
         ~doc:"Open-loop arrival rate in requests per second; arrivals are stamped by the \
               schedule, never by the previous reply")
  in
  let requests_arg =
    Arg.(value & opt int 20_000 & info [ "n"; "requests" ] ~docv:"N" ~doc:"Requests per cell")
  in
  let payload_arg =
    Arg.(value & opt int 1024 & info [ "payload" ] ~docv:"BYTES" ~doc:"Value payload per request")
  in
  let factor_arg =
    Arg.(value & opt float 3.0 & info [ "factor" ] ~docv:"F"
         ~doc:"Gray slow-down inflation factor for the gray-composed cell")
  in
  let comp name doc =
    Arg.(value & opt bool true & info [ name ] ~docv:"BOOL" ~doc)
  in
  let placement_arg = comp "placement" "Include the adaptive-placement-composed cell" in
  let chaos_arg = comp "chaos" "Include the chaos kill/restart-composed cell" in
  let gray_arg = comp "gray" "Include the gray slow-down-composed cell" in
  let scrub_arg = comp "scrub" "Include the corruption + scrubber-composed cell" in
  let soak_doc =
    "Run $(docv) independent campaigns at derived seeds (seed, seed+1, ...); the soak verdict is \
     the worst across cells"
  in
  let run seed keys theta rate requests payload factor placement chaos gray scrub cache_mode soak
      obs =
    (* Fail fast on an unusable config — before sinks are installed or a
       machine is built — with the shared exit-2 contract. *)
    let probe =
      { Serve.default with Serve.keys; theta; rate; requests; payload; seed; cache_mode }
    in
    match Serve.validate probe with
    | Error msg -> usage_error "invalid serve config: %s" msg
    | Ok () ->
        let campaign fmt ~seed =
          H.Serve_experiments.campaign fmt ~seed ~keys ~theta ~rate ~requests ~payload
            ~cache_mode ~placement ~chaos ~gray ~scrub ~factor
        in
        run_campaign ~name:"serve" ~seed ~obs
          ~soak:
            ( soak,
              [
                ("keys", Obs.Json.Int keys);
                ("rate_rps", Obs.Json.Float rate);
                ("requests", Obs.Json.Int requests);
              ],
              (fun cells -> Printf.sprintf "serve soak: cells=%d base seed=%Ld" cells seed),
              fun fmt seed -> campaign fmt ~seed () )
          (campaign fmt ~seed)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the open-loop serving campaign: million-key Zipfian request harness with \
          per-request tail-latency SLOs, measured under Popcorn and Stramash and composed with \
          chaos kill/restart, gray slow-down, corruption scrubbing, and adaptive placement")
    Term.(
      const run $ seed_arg $ keys_arg $ theta_arg $ rate_arg $ requests_arg $ payload_arg
      $ factor_arg $ placement_arg $ chaos_arg $ gray_arg $ scrub_arg $ cache_mode_term
      $ soak_term ~doc:soak_doc $ obs_term)

(* ---------- obs (offline causal-trace analysis) ---------- *)

module Causal = Stramash_obs.Causal

(* Snapshot files store the causal sections pre-computed; rebuild blame
   rows from the JSON so the same table renderer serves both inputs. *)
let blame_rows_of_json json =
  match Obs.Json.get_list json with
  | None -> []
  | Some rows ->
      List.filter_map
        (fun row ->
          let int k = Option.bind (Obs.Json.member k row) Obs.Json.get_int in
          let str k = Option.bind (Obs.Json.member k row) Obs.Json.get_string in
          match (str "subsys", str "op") with
          | Some subsys, Some op ->
              let get k = Option.value ~default:0 (int k) in
              Some
                {
                  Causal.b_subsys = subsys;
                  b_op = op;
                  b_hops = get "hops";
                  b_cycles = get "cycles";
                  b_node = [| get "x86_cycles"; get "arm_cycles" |];
                }
          | _ -> None)
        rows

let blocked_rows_of_json json =
  let tbl = Hashtbl.create 8 in
  (match Obs.Json.get_obj json with
  | None -> ()
  | Some nodes ->
      List.iter
        (fun (node_name, fields) ->
          match
            ( List.find_index (fun n -> Node_id.to_string n = node_name) Node_id.all,
              Obs.Json.get_obj fields )
          with
          | Some idx, Some fields ->
              List.iter
                (fun (subsys, v) ->
                  if subsys <> "total" then
                    match Obs.Json.get_int v with
                    | Some cycles ->
                        let row =
                          match Hashtbl.find_opt tbl subsys with
                          | Some row -> row
                          | None ->
                              let row = Array.make (List.length Node_id.all) 0 in
                              Hashtbl.add tbl subsys row;
                              row
                        in
                        row.(idx) <- row.(idx) + cycles
                    | None -> ())
                fields
          | _ -> ())
        nodes);
  Hashtbl.fold (fun s row acc -> (s, row) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let print_exemplar (f : Causal.flow) =
  Format.fprintf fmt "  flow %d: %s.%s on %s, %d cycles, %d spans@." f.Causal.f_id
    f.Causal.f_root_subsys f.Causal.f_root_op
    (Node_id.to_string (Node_id.of_index f.Causal.f_node))
    f.Causal.f_cycles f.Causal.f_spans;
  List.iter
    (fun (h : Causal.hop) ->
      Format.fprintf fmt "    %-4s %s.%s %d@."
        (Node_id.to_string (Node_id.of_index h.Causal.h_node))
        h.Causal.h_subsys h.Causal.h_op h.Causal.h_cycles)
    f.Causal.f_path

let obs_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "A --trace output (Chrome trace-event JSON, or JSONL) or a --metrics-json snapshot \
             with causal sections")
  in
  let flame_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame" ] ~docv:"OUT"
          ~doc:
            "Write a folded-stack flamegraph to $(docv) (one 'node;frames count' line per stack; \
             feed to flamegraph.pl or speedscope). Needs a trace file, not a snapshot")
  in
  let percentile_arg =
    Arg.(
      value & opt float 0.99
      & info [ "percentile" ] ~docv:"P" ~doc:"Tail threshold for exemplar flows (0 < P < 1)")
  in
  let exemplars_arg =
    Arg.(value & opt int 8 & info [ "exemplars" ] ~docv:"N" ~doc:"Tail exemplar traces to keep")
  in
  let top_arg =
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"Blame-table rows to print (0 = all)")
  in
  let run file flame percentile exemplars top =
    let contents =
      match open_in_bin file with
      | ic ->
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          Some s
      | exception Sys_error msg ->
          Format.eprintf "stramash_cli obs: %s@." msg;
          None
    in
    match contents with
    | None -> 2
    | Some contents -> (
        let snapshot_sections =
          match Obs.Json.parse (String.trim contents) with
          | Ok json -> (
              match (Obs.Json.member "critical_path" json, Obs.Json.member "blocked_on_remote" json) with
              | Some cp, Some blocked -> Some (cp, blocked)
              | _ -> None)
          | Error _ -> None
        in
        match snapshot_sections with
        | Some (cp, blocked) ->
            if flame <> None then begin
              Format.eprintf
                "stramash_cli obs: --flame needs a trace file; a snapshot has no event stream@.";
              2
            end
            else begin
              let flows = Option.bind (Obs.Json.member "flows" cp) Obs.Json.get_int in
              let cross = Option.bind (Obs.Json.member "cross_node_flows" cp) Obs.Json.get_int in
              (* No file name in the report body: same-seed runs must
                 produce byte-identical output whatever the paths are. *)
              Format.fprintf fmt "snapshot: %d flows, %d cross-node@."
                (Option.value ~default:0 flows)
                (Option.value ~default:0 cross);
              H.Report.print fmt
                (H.Obs_report.blame_report ~top
                   (blame_rows_of_json
                      (Option.value ~default:(Obs.Json.List []) (Obs.Json.member "blame" cp))));
              H.Obs_report.print_blocked_rows fmt (blocked_rows_of_json blocked);
              0
            end
        | None -> (
            match Causal.events_of_string contents with
            | Error msg ->
                Format.eprintf "stramash_cli obs: cannot read %s: %s@." file msg;
                2
            | Ok events -> (
                match Causal.Reservoir.create ~percentile ~max_keep:exemplars () with
                | exception Invalid_argument msg ->
                    Format.eprintf "stramash_cli obs: %s@." msg;
                    2
                | reservoir ->
                    let flows = Causal.flows_of_events events in
                    let cross = Causal.cross_node_flows flows in
                    Format.fprintf fmt "trace: %d events, %d flows, %d cross-node@."
                      (List.length events) (List.length flows) (List.length cross);
                    H.Report.print fmt (H.Obs_report.blame_report ~top (Causal.blame flows));
                    H.Obs_report.print_blocked_rows fmt (Causal.blocked_of_flows flows);
                    List.iter (Causal.Reservoir.offer reservoir) flows;
                    let threshold, tail = Causal.Reservoir.finalize reservoir in
                    if tail <> [] then begin
                      Format.fprintf fmt "tail exemplars (p%g >= %d cycles over %d flows):@."
                        (100.0 *. percentile) threshold
                        (Causal.Reservoir.count reservoir);
                      List.iter print_exemplar tail
                    end;
                    (match flame with
                    | None -> ()
                    | Some out ->
                        write_file out (Causal.folded events);
                        Format.fprintf fmt "flamegraph: %s@." out);
                    0)))
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:
         "Analyse a trace or metrics snapshot offline: assemble causal flows, print the \
          critical-path blame table, the blocked-on-remote summary, and tail-exemplar traces; \
          optionally export a folded-stack flamegraph")
    Term.(const run $ file_arg $ flame_arg $ percentile_arg $ exemplars_arg $ top_arg)

(* ---------- disasm ---------- *)

let disasm_cmd =
  let bench_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"BENCH" ~doc:"is | cg | mg | ft | ep | lu | sp")
  in
  let isa_conv =
    let parse = function
      | "x86" -> Ok Node_id.X86
      | "arm" -> Ok Node_id.Arm
      | s -> Error (`Msg (Printf.sprintf "unknown ISA %S (x86 | arm)" s))
    in
    Arg.conv (parse, Node_id.pp)
  in
  let isa_arg =
    Arg.(value & opt isa_conv Node_id.X86 & info [ "i"; "isa" ] ~docv:"ISA" ~doc:"x86 | arm")
  in
  let limit_arg =
    Arg.(value & opt int 80 & info [ "n"; "limit" ] ~docv:"N" ~doc:"Instructions to print (0 = all)")
  in
  let run bench isa limit =
    match spec_of_bench bench with
    | None ->
        Format.fprintf fmt "unknown benchmark %s@." bench;
        1
    | Some spec ->
        let image = Stramash_isa.Codegen.lower ~isa spec.Stramash_machine.Spec.mir in
        let rendered = Format.asprintf "%a" Stramash_isa.Machine.pp_program image in
        let lines = String.split_on_char '\n' rendered in
        let shown = if limit = 0 then lines else List.filteri (fun i _ -> i <= limit) lines in
        List.iter (Format.fprintf fmt "%s@.") shown;
        if limit <> 0 && List.length lines > limit + 1 then
          Format.fprintf fmt "... (%d more instructions; --limit 0 for all)@."
            (List.length lines - limit - 1);
        0
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a workload's image for one ISA")
    Term.(const run $ bench_arg $ isa_arg $ limit_arg)

(* ---------- machine ---------- *)

let machine_cmd =
  let run () =
    Format.fprintf fmt "Simulated platform (paper Figs. 1, 3, 4):@.";
    Format.fprintf fmt "  nodes: x86-64 island + AArch64 island, cache-coherent shared memory@.";
    Format.fprintf fmt "  physical memory: %d GB total@." (Layout.total_memory / Stramash_mem.Addr.gib 1);
    Format.fprintf fmt "  x86 private:  %a@." Layout.pp_region Layout.x86_private;
    Format.fprintf fmt "  arm private:  %a@." Layout.pp_region Layout.arm_private;
    Format.fprintf fmt "  message ring: %a@." Layout.pp_region Layout.message_ring;
    Format.fprintf fmt "  global pool:  %a@." Layout.pp_region Layout.pool;
    Format.fprintf fmt "  canonical clock: %.1f GHz; cross-ISA IPI: %.1f us; TCP RTT: 75 us@."
      Cycles.frequency_ghz
      (Cycles.to_us Stramash_interconnect.Ipi.cross_isa_ipi_cycles);
    H.Validation.table2 fmt;
    0
  in
  Cmd.v (Cmd.info "machine" ~doc:"Describe the simulated platform") Term.(const run $ const ())

let () =
  (* The interpreter's Int64 register file allocates on every write; a
     larger minor heap keeps that churn out of the collector's way. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
  let info =
    Cmd.info "stramash_cli" ~version:"1.0.0"
      ~doc:"Fused-kernel OS (Stramash, ASPLOS'25) reproduction toolkit"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd;
            experiment_cmd;
            npb_cmd;
            redis_cmd;
            futex_cmd;
            faults_cmd;
            chaos_cmd;
            place_cmd;
            gray_cmd;
            scrub_cmd;
            serve_cmd;
            obs_cmd;
            machine_cmd;
            disasm_cmd;
          ]))
