(* Regenerate the golden trace files (test/golden/*.trace) from the
   current simulator, and the pinned compiler output
   (test/golden/compiled.digests) from the current compiler. Run from
   the repo root:

     make regen-golden        (or: dune exec test/regen_golden.exe)

   Inspect the diff before committing: a golden change means the
   simulator's observable schedule or the emitted code changed, and
   that must be intentional. *)

let () =
  let dir =
    if Sys.file_exists "test/golden" then "test/golden"
    else if Sys.file_exists "test" then begin
      Unix.mkdir "test/golden" 0o755;
      "test/golden"
    end
    else failwith "run from the repo root"
  in
  let write ?machine ?machine_tag (kernel, config_name, config) =
    let source = Test_support.Goldens.kernel_source kernel in
    match
      Edge_harness.Tracekit.trace_source ?machine ~source ~config ()
    with
    | Error e -> failwith (Printf.sprintf "%s/%s: %s" kernel config_name e)
    | Ok t ->
        let mname = Option.map Edge_sim.Machine.name machine in
        let text =
          Edge_harness.Tracekit.render ?machine:mname ~kernel
            ~config:config_name t
        in
        let path =
          Filename.concat dir
            (Test_support.Goldens.golden_name ?machine:machine_tag kernel
               config_name)
        in
        let oc = open_out_bin path in
        output_string oc text;
        close_out oc;
        Printf.printf "wrote %s (%d lines)\n" path
          (List.length (String.split_on_char '\n' text))
  in
  List.iter write (Test_support.Goldens.all ());
  List.iter
    (write ~machine:Test_support.Goldens.inorder_machine
       ~machine_tag:Test_support.Goldens.inorder_tag)
    (Test_support.Goldens.inorder_all ());
  let lines = Test_support.Compiled_pins.lines () in
  let path = Filename.concat dir Test_support.Compiled_pins.file_name in
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  Printf.printf "wrote %s (%d compiles)\n" path (List.length lines)
