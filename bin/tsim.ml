(* tsim: run a workload through the functional and cycle simulators.

   Accepts a registered workload name, a path to a `.k` kernel source
   (fuzz-corpus argument conventions), or a `.s` assembly / `.img`
   binary program. A timed registry workload runs verified against the
   reference interpreter; everything else becomes a program plus
   registers and memory for one runner, so -f, -m and the ablation
   flags mean the same for every input.

   Observability:
     --trace-out x.json   write a Chrome trace-event JSON of the run
                          (load into Perfetto / chrome://tracing)
     --trace-text x.trace write the compact deterministic text trace
                          (the golden-test format)
     --metrics            print the metrics summary table
     --profile            compile once more, outside the compile memo,
                          and print host time per compiler stage *)

open Cmdliner

let config_of_name = function
  | "bb" -> Ok ("BB", Dfp.Config.bb)
  | "hyper" -> Ok ("Hyper", Dfp.Config.hyper_baseline)
  | "intra" -> Ok ("Intra", Dfp.Config.intra)
  | "inter" -> Ok ("Inter", Dfp.Config.inter)
  | "both" -> Ok ("Both", Dfp.Config.both)
  | "merge" -> Ok ("Merge", Dfp.Config.merge)
  | "sand" -> Ok ("Sand", Dfp.Config.sand)
  | "hand" -> Ok ("Hand", Dfp.Config.hand_optimized)
  | s -> Error (Printf.sprintf "unknown config %s" s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* -- observability plumbing --------------------------------------- *)

type obs_opts = {
  trace_out : string option;  (* Chrome JSON path *)
  trace_text : string option;  (* deterministic text path *)
  metrics : bool;
}

let obs_wanted o = o.trace_out <> None || o.trace_text <> None || o.metrics

(* an Obs bundle + a finisher that writes/prints whatever was asked;
   [header] gives the text trace's header fields for the run's cycle
   count *)
let make_obs o ~name ~header =
  if not (obs_wanted o) then (None, fun ~cycles:_ -> Ok ())
  else begin
    let obs, events, m = Edge_obs.Obs.collector ~level:Edge_obs.Trace.Full () in
    let write path contents =
      match open_out path with
      | oc ->
          output_string oc contents;
          close_out oc;
          Format.printf "wrote %s@." path;
          Ok ()
      | exception Sys_error e -> Error e
    in
    let finish ~cycles =
      let ( let* ) = Result.bind in
      let evs = events () in
      let* () =
        match o.trace_out with
        | Some path ->
            write path (Edge_obs.Trace.chrome_to_string ~name evs)
        | None -> Ok ()
      in
      let* () =
        match o.trace_text with
        | Some path ->
            write path (Edge_obs.Trace.render_text ~header:(header cycles) evs)
        | None -> Ok ()
      in
      if o.metrics then Format.printf "%a@." Edge_obs.Metrics.pp_summary m;
      Ok ()
    in
    (Some obs, finish)
  end

(* --profile: lower the kernel and compile it once more, outside the
   compile memo, with host time recorded per compiler stage; prints µs
   and share of the compile's wall time per stage, slowest first, and
   the time outside every stage as [other], so the rows sum to the
   wall time *)
let run_profile workload config_name =
  let ( let* ) = Result.bind in
  let* config_name, config = config_of_name config_name in
  let* ast =
    if Filename.check_suffix workload ".k" then
      Edge_lang.Parser.parse (read_file workload)
    else
      match Edge_workloads.Registry.find workload with
      | Some w -> Edge_workloads.Workload.parse w
      | None -> Error "--profile compiles a workload name or a .k kernel"
  in
  let* cfg = Edge_lang.Lower.lower ast in
  let m = Edge_obs.Metrics.create () in
  let t0 = Unix.gettimeofday () in
  let* _ = Dfp.Driver.compile_cfg ~profile:m cfg config in
  let wall = Float.to_int (Float.round ((Unix.gettimeofday () -. t0) *. 1e6)) in
  let prefix = "compile.stage." and suffix = "_us" in
  let stages =
    Edge_obs.Metrics.counters m
    |> List.map (fun (k, us) ->
           let n = String.length k - String.length prefix - String.length suffix in
           (String.sub k (String.length prefix) n, us))
    |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
  in
  let other = wall - List.fold_left (fun a (_, us) -> a + us) 0 stages in
  Format.printf "compile profile %s/%s: %d us@."
    (Filename.remove_extension (Filename.basename workload))
    config_name wall;
  List.iter
    (fun (stage, us) ->
      Format.printf "  %-12s %10d us %6.1f%%@." stage us
        (100. *. float_of_int us /. float_of_int (max 1 wall)))
    (stages @ [ ("other", other) ]);
  Ok ()

(* run a program from prepared registers and memory: the functional
   simulator under -f, otherwise the timing backend [machine] selects,
   with whatever trace and metrics output was asked for *)
let run_program ~name ~header ~functional_only ~machine ?placement program
    ~regs ~mem oopts =
  let ( let* ) = Result.bind in
  let report stats =
    Format.printf "%s: returned %Ld@.%a@." name
      regs.(Edge_isa.Conventions.result_reg)
      Edge_sim.Stats.pp stats
  in
  if functional_only then
    if obs_wanted oopts then
      Error
        "--functional runs no timing backend: it has no --trace-out, \
         --trace-text or --metrics output"
    else
      let* stats = Edge_sim.Functional.run program ~regs ~mem in
      report stats;
      Ok ()
  else
    let obs, finish = make_obs oopts ~name ~header in
    let* stats =
      Edge_sim.Backend.run ~machine ?placement ?obs program ~regs ~mem
    in
    report stats;
    finish ~cycles:stats.Edge_sim.Stats.cycles

(* a hand-written assembly or binary program: arguments land in the
   parameter registers of a 1 MB machine *)
let load_asm path args =
  let ( let* ) = Result.bind in
  let* program =
    Result.map_error
      (fun e -> "program: " ^ e)
      (if Filename.check_suffix path ".img" then Edge_isa.Image.read_file path
       else Edge_isa.Asm.parse_program (read_file path))
  in
  let* () =
    Result.map_error
      (fun es -> "invalid program: " ^ String.concat "; " es)
      (Edge_isa.Program.validate program)
  in
  let regs = Array.make Edge_isa.Conventions.num_regs 0L in
  List.iteri (fun i v -> regs.(Edge_isa.Conventions.param_reg i) <- v) args;
  Ok (program, regs, Edge_isa.Mem.create ~size:(1 lsl 20))

(* --lint: compile-only ineffectuality report.  Findings print as
   ineff[block=... at=... pred=...] lines and nothing is simulated;
   the code the findings describe is left untouched. *)
let run_lint workload config_name =
  let ( let* ) = Result.bind in
  let* _, config = config_of_name config_name in
  let* findings =
    if Filename.check_suffix workload ".k" then
      Edge_harness.Experiment.lint_source (read_file workload) config
    else
      match Edge_workloads.Registry.find workload with
      | Some w -> Edge_harness.Experiment.lint w config
      | None ->
          Error
            (Printf.sprintf "unknown workload %s; available: %s" workload
               (String.concat ", " (Edge_workloads.Registry.names ())))
  in
  List.iter (fun f -> print_endline (Dfp.Opt_ineff.render f)) findings;
  Format.printf "%d finding(s)@." (List.length findings);
  Ok ()

let run workload config_name machine_name functional_only no_early in_order
    check lint asm_args trace_out trace_text metrics profile =
  let ( let* ) = Result.bind in
  if check then Edge_check.Check.set_enabled true;
  let oopts = { trace_out; trace_text; metrics } in
  let machine_of () =
    (* --machine picks the base description (preset name or compact
       key=value line); the ablation flags override on top of it *)
    let* base =
      match machine_name with
      | None -> Ok Edge_sim.Machine.default
      | Some s -> Edge_sim.Machine.of_compact s
    in
    Ok
      {
        base with
        Edge_sim.Machine.early_termination =
          base.Edge_sim.Machine.early_termination && not no_early;
        aggressive_loads =
          base.Edge_sim.Machine.aggressive_loads && not in_order;
      }
  in
  let compute () =
    if lint then run_lint workload config_name
    else
    let* machine = machine_of () in
    let run_program = run_program ~functional_only ~machine in
    if Filename.check_suffix workload ".s" || Filename.check_suffix workload ".img"
    then
      let* program, regs, mem =
        load_asm workload
          (List.filter_map Int64.of_string_opt
             (String.split_on_char ',' asm_args))
      in
      let name = Filename.remove_extension (Filename.basename workload) in
      run_program ~name
        ~header:(fun cycles ->
          [ ("kernel", name); ("cycles", string_of_int cycles) ])
        program ~regs ~mem oopts
    else if Filename.check_suffix workload ".k" then
      (* the fuzz-corpus kernel convention; the text trace is the
         golden format, naming a --machine if one was given *)
      let* config_name, config = config_of_name config_name in
      let kernel = Filename.remove_extension (Filename.basename workload) in
      let* compiled =
        Edge_harness.Tracekit.compile_source (read_file workload) config
      in
      let machine_tag =
        Option.map (fun _ -> Edge_sim.Machine.name machine) machine_name
      in
      run_program
        ~name:(kernel ^ "/" ^ config_name)
        ~header:(fun cycles ->
          Edge_harness.Tracekit.header ?machine:machine_tag ~kernel
            ~config:config_name ~cycles ())
        ~placement:(Edge_harness.Tracekit.placement compiled)
        compiled.Dfp.Driver.program
        ~regs:(Edge_harness.Tracekit.default_regs ())
        ~mem:(Edge_harness.Tracekit.default_mem ())
        oopts
    else
    let* w =
      match Edge_workloads.Registry.find workload with
      | Some w -> Ok w
      | None ->
          Error
            (Printf.sprintf "unknown workload %s; available: %s" workload
               (String.concat ", " (Edge_workloads.Registry.names ())))
    in
    let* name_config = config_of_name config_name in
    let name = workload ^ "/" ^ fst name_config in
    if functional_only then begin
      let* compiled = Edge_harness.Experiment.compile w (snd name_config) in
      let regs, mem = Edge_harness.Experiment.setup_run w in
      run_program ~name
        ~header:(fun _ -> [ ("kernel", name) ])
        compiled.Dfp.Driver.program ~regs ~mem oopts
    end
    else begin
      let obs, finish =
        make_obs oopts ~name ~header:(fun _ -> [ ("kernel", name) ])
      in
      let* r =
        Edge_harness.Experiment.run_one ~machine ?obs w name_config
      in
      Format.printf "%s/%s: verified against the reference interpreter@."
        r.Edge_harness.Experiment.workload r.Edge_harness.Experiment.config;
      Format.printf "%a@." Edge_sim.Stats.pp r.Edge_harness.Experiment.stats;
      if r.Edge_harness.Experiment.pass_counters <> [] && metrics then begin
        Format.printf "compiler pass counters:@.";
        List.iter
          (fun (k, v) -> Format.printf "  %-36s %10d@." k v)
          r.Edge_harness.Experiment.pass_counters
      end;
      finish ~cycles:r.Edge_harness.Experiment.cycles
    end
  in
  let result = compute () in
  (* a checker diagnostic aborts compilation before anything runs; when
     the user also asked for a trace, recompile with the checker off and
     run that artifact so the offending block's schedule lands next to
     the error (the run still exits nonzero) *)
  let result =
    match result with
    | Error e
      when Edge_check.Check.enabled ()
           && obs_wanted oopts
           && Edge_check.Diag.parse_key e <> None ->
        Format.printf
          "checker diagnostic; capturing the trace with the checker off@.";
        (match Edge_check.Check.without_check compute with
        | Ok () -> ()
        | Error e2 -> Format.printf "trace capture also failed: %s@." e2);
        Error e
    | r -> r
  in
  let result =
    match result with
    | Ok () when profile -> run_profile workload config_name
    | r -> r
  in
  match result with
  | Ok () -> 0
  | Error e ->
      prerr_endline ("tsim: " ^ e);
      1

let asm_args_arg =
  let doc = "Comma-separated integer arguments for .s programs." in
  Arg.(value & opt string "" & info [ "args" ] ~doc)

let workload_arg =
  let doc =
    "Workload name, a path to a .k kernel source, or a path to a .s \
     assembly / .img binary program."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let config_arg =
  let doc = "Compiler configuration." in
  Arg.(value & opt string "both" & info [ "c"; "config" ] ~doc)

let machine_arg =
  let doc =
    "Machine description: a preset name (trips_grid, inorder_edge), a \
     compact key=value line (e.g. rows=8;cols=8;slots=2), or a preset \
     with overrides (e.g. inorder_edge;window=8). Selects the backend: \
     trips_grid machines run the tiled grid simulator, inorder_edge \
     machines the scalar in-order core."
  in
  Arg.(value & opt (some string) None & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc)

let functional_arg =
  let doc = "Run only the functional (untimed) simulator." in
  Arg.(value & flag & info [ "f"; "functional" ] ~doc)

let no_early_arg =
  let doc = "Disable early mispredication termination (Section 4.3 ablation)." in
  Arg.(value & flag & info [ "no-early-termination" ] ~doc)

let in_order_arg =
  let doc = "In-order memory: loads wait for all older stores." in
  Arg.(value & flag & info [ "in-order-memory" ] ~doc)

let check_arg =
  let doc =
    "Run the per-pass static verifier during compilation: any invariant \
     violation aborts with a check[pass=... invariant=...] diagnostic. \
     With --trace-out or --trace-text, a failing compile is redone with \
     the checker off so the offending program's trace is captured \
     alongside the error."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let lint_arg =
  let doc =
    "Compile-only ineffectuality report: print one \
     ineff[block=... at=... pred=...] line per instruction the \
     analysis proves can never contribute to a block output, store, or \
     branch (and per droppable guard), without deleting anything or \
     simulating. Works on workload names and .k kernels."
  in
  Arg.(value & flag & info [ "lint" ] ~doc)

let trace_out_arg =
  let doc =
    "Write a Chrome trace-event JSON of the cycle-simulator run to \
     $(docv) (viewable in Perfetto or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"PATH" ~doc)

let trace_text_arg =
  let doc =
    "Write the compact deterministic text trace (the golden-test format) \
     to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace-text" ] ~docv:"PATH" ~doc)

let metrics_arg =
  let doc = "Print the derived metrics summary (counters and histograms)." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let profile_arg =
  let doc =
    "After the run, compile the workload or .k kernel once more, outside \
     the compile memo, and print the host time of each compiler stage \
     (each pass, ssa, unroll, regions, sizing, check) in µs and as a \
     share of the compile's wall time; [other] is the time outside \
     every stage."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let cmd =
  let doc = "cycle-level TRIPS-like simulator" in
  Cmd.v
    (Cmd.info "tsim" ~doc)
    Term.(
      const run $ workload_arg $ config_arg $ machine_arg $ functional_arg
      $ no_early_arg $ in_order_arg $ check_arg
      $ lint_arg $ asm_args_arg $ trace_out_arg $ trace_text_arg
      $ metrics_arg $ profile_arg)

let () = exit (Cmd.eval' cmd)
