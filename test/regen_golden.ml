(* Regenerate the golden trace files (test/golden/*.trace) from the
   current simulator, the pinned compiler output
   (test/golden/compiled.digests) from the current compiler, the pinned
   block judges' answers (test/golden/judges.digests) and the pinned
   ineffectuality enumerator's answers (test/golden/enum.digests). Run
   from the repo root:

     make regen-golden        (or: dune exec test/regen_golden.exe)

   Inspect the diff before committing: a golden change means the
   simulator's observable schedule, the emitted code or a judge's
   answer changed, and that must be intentional. *)

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
  let write_lines file_name what lines =
    let path = Filename.concat dir file_name in
    let oc = open_out_bin path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    Printf.printf "wrote %s (%d %s)\n" path (List.length lines) what
  in
  write_lines Test_support.Compiled_pins.file_name "compiles"
    (Test_support.Compiled_pins.lines ());
  write_lines Test_support.Judge_pins.file_name "lines"
    (Test_support.Judge_pins.lines ());
  write_lines Test_support.Enum_pins.file_name "lines"
    (Test_support.Enum_pins.lines ())
