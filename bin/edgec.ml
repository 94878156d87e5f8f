(* edgec: the kernel-language compiler driver.

   Compiles a kernel source file (or a named workload) under a chosen
   configuration and dumps the requested phase, as the compiler's own
   pipeline leaves it: the CFG after classic optimizations and
   unrolling, the predicated hyperblocks that register allocation reads
   (one per emitted block), or the final TRIPS blocks (default). *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_source input =
  if Sys.file_exists input then Ok (read_file input)
  else
    match Edge_workloads.Registry.find input with
    | Some w -> Ok w.Edge_workloads.Workload.source
    | None -> Error (Printf.sprintf "no such file or workload: %s" input)

let run input config_name phase stats image_out =
  let ( let* ) = Result.bind in
  let result =
    let* src = load_source input in
    let* _, config = Dfp.Config.find config_name in
    let compile () =
      let* cfg = Edge_lang.Lower.compile src in
      Dfp.Driver.compile_cfg cfg config
    in
    let hyperblocks () =
      let* cfg = Edge_lang.Lower.compile src in
      Dfp.Driver.hyperblocks cfg config
    in
    let* () =
      match image_out with
      | None -> Ok ()
      | Some path ->
          let* compiled = compile () in
          let* () = Edge_isa.Image.write_file path compiled.Dfp.Driver.program in
          Format.printf "wrote %s@." path;
          Ok ()
    in
    match phase with
    | "cfg" ->
        let* cfg, _ = hyperblocks () in
        Format.printf "%a@." Edge_ir.Cfg.pp cfg;
        Ok ()
    | "hblocks" ->
        let* _, hblocks = hyperblocks () in
        List.iter (Format.printf "%a@." Edge_ir.Hblock.pp) hblocks;
        Ok ()
    | "dot" ->
        let* compiled = compile () in
        print_string (Edge_isa.Dot.program_to_dot compiled.Dfp.Driver.program);
        Ok ()
    | "blocks" ->
        let* compiled = compile () in
        Format.printf "%a@." Edge_isa.Program.pp compiled.Dfp.Driver.program;
        if stats then
          Format.printf
            "; static: %d instructions, %d blocks, %d fanout moves, %d \
             explicit predicates@."
            compiled.Dfp.Driver.static_instrs compiled.Dfp.Driver.static_blocks
            compiled.Dfp.Driver.static_fanout_moves
            compiled.Dfp.Driver.explicit_predicates;
        Ok ()
    | p -> Error (Printf.sprintf "unknown phase %s (cfg|hblocks|blocks|dot)" p)
  in
  match result with
  | Ok () -> 0
  | Error e ->
      prerr_endline ("edgec: " ^ e);
      1

let input_arg =
  let doc = "Kernel source file, or the name of a built-in workload." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"INPUT" ~doc)

let config_arg =
  let doc =
    "Compiler configuration, in any case: bb, hyper, intra, inter, both, \
     merge, mov4, sand or hand."
  in
  Arg.(value & opt string "both" & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)

let phase_arg =
  let doc = "Phase to dump: cfg, hblocks, blocks, or dot (Graphviz)." in
  Arg.(value & opt string "blocks" & info [ "p"; "phase" ] ~docv:"PHASE" ~doc)

let stats_arg =
  let doc = "Print static statistics after the dump." in
  Arg.(value & flag & info [ "s"; "stats" ] ~doc)

let image_arg =
  let doc = "Also write the binary program image (1024-byte block frames)." in
  Arg.(value & opt (some string) None & info [ "o"; "emit-image" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "compile kernels to predicated TRIPS blocks" in
  Cmd.v
    (Cmd.info "edgec" ~doc)
    Term.(const run $ input_arg $ config_arg $ phase_arg $ stats_arg $ image_arg)

let () = exit (Cmd.eval' cmd)
