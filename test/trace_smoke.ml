(* `make trace-smoke`: a seconds-long end-to-end check of the
   observability layer. Runs one golden kernel with tracing on,
   validates that the Chrome trace-event export parses as strict JSON
   (lib/obs/json), and checks the deterministic text trace against
   its blessed golden file. Run from the repo root. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("trace-smoke: " ^ s); exit 1) fmt

let () =
  let kernel = "sand_gate" in
  let config_name, config = ("Both", Dfp.Config.both) in
  let source = Test_support.Goldens.kernel_source kernel in
  match Edge_harness.Tracekit.trace_source ~source ~config () with
  | Error e -> fail "%s/%s: %s" kernel config_name e
  | Ok t ->
      (* 1. the Chrome export parses as strict JSON *)
      let json =
        Edge_obs.Trace.chrome_to_string ~name:kernel
          t.Edge_harness.Tracekit.events
      in
      (match Edge_obs.Json.parse json with
      | Ok _ -> ()
      | Error e -> fail "chrome JSON invalid: %s" e);
      (* 2. the text trace matches the blessed golden *)
      let text = Edge_harness.Tracekit.render ~kernel ~config:config_name t in
      let golden_path =
        Filename.concat
          (Test_support.Goldens.golden_dir ())
          (Test_support.Goldens.golden_name kernel config_name)
      in
      let golden = Test_support.Goldens.read_file golden_path in
      (match Edge_obs.Trace.first_divergence golden text with
      | None -> ()
      | Some (line, want, got) ->
          fail "trace diverges from %s at line %d:\n  golden: %s\n  got:    %s"
            golden_path line want got);
      (* 3. the metrics registry is coherent with the stats *)
      let m = t.Edge_harness.Tracekit.metrics in
      let stats = t.Edge_harness.Tracekit.stats in
      if
        Edge_obs.Metrics.counter m "sim.blocks_committed"
        <> stats.Edge_sim.Stats.blocks_committed
      then fail "metrics/stats disagree on committed blocks";
      Printf.printf
        "trace-smoke: %s/%s ok (%d events, %d-byte JSON, golden matches)\n"
        kernel config_name
        (List.length t.Edge_harness.Tracekit.events)
        (String.length json);
      (* 4. the in-order backend's trace matches its blessed golden *)
      let machine = Test_support.Goldens.inorder_machine in
      (match
         Edge_harness.Tracekit.trace_source ~machine ~source ~config ()
       with
      | Error e -> fail "%s/%s inorder: %s" kernel config_name e
      | Ok t ->
          let text =
            Edge_harness.Tracekit.render
              ~machine:(Edge_sim.Machine.name machine)
              ~kernel ~config:config_name t
          in
          let golden_path =
            Filename.concat
              (Test_support.Goldens.golden_dir ())
              (Test_support.Goldens.golden_name
                 ~machine:Test_support.Goldens.inorder_tag kernel config_name)
          in
          let golden = Test_support.Goldens.read_file golden_path in
          (match Edge_obs.Trace.first_divergence golden text with
          | None -> ()
          | Some (line, want, got) ->
              fail
                "inorder trace diverges from %s at line %d:\n\
                \  golden: %s\n\
                \  got:    %s"
                golden_path line want got);
          Printf.printf
            "trace-smoke: %s/%s inorder ok (%d events, golden matches)\n"
            kernel config_name
            (List.length t.Edge_harness.Tracekit.events))
