(* Golden pin of simulated NPB results.

   One line per cell of the small Fig. 9 set x {popcorn-shm, stramash} x
   the three hardware models, then a small EP under the same six
   configurations. Every field is a simulated quantity, so a
   change that moves one cycle, message or page fails [dune runtest]
   with a diff against npb.expected. Regenerate the file (run the rule,
   then [dune promote]) only for a change meant to move simulated
   results, and say why in its commit message. *)

module Layout = Stramash_mem.Layout
module Machine = Stramash_machine.Machine
module Runner = Stramash_machine.Runner
module W = Stramash_workloads
module CE = Stramash_harness.Campaign

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let small_ep = W.Npb_ep.spec ~params:{ W.Npb_ep.samples = 8192; iterations = 2 } ()

let () =
  List.iter
    (fun (bench, spec) ->
      List.iter
        (fun os ->
          List.iter
            (fun hw_model ->
              let machine = Machine.create { Machine.default_config with os; hw_model } in
              let proc, thread = Machine.load machine spec in
              let r = Runner.run machine proc thread spec in
              Printf.printf
                "%s %s %s wall_cycles=%d node_icounts=%s node_cycles=%s messages=%d \
                 replicated_pages=%d migrations=%d checksum=%s\n"
                bench (Machine.os_choice_name os) (Layout.hw_model_to_string hw_model)
                r.Runner.wall_cycles (ints r.Runner.node_icounts) (ints r.Runner.node_cycles)
                r.Runner.messages r.Runner.replicated_pages r.Runner.migrations
                (match CE.checksum machine ~proc with
                | Some v -> Printf.sprintf "%016Lx" v
                | None -> "unmapped"))
            Layout.all_hw_models)
        [ Machine.Popcorn_shm; Machine.Stramash_kernel_os ])
    (W.Npb_suite.fig9_set ~small:true @ [ ("ep", small_ep) ])
