(* End-to-end harness coverage: the Figure 7 sweep machinery, the genalg
   case study and the ablations on a small benchmark subset. *)

let tiny_benches () =
  List.filter_map Edge_workloads.Registry.find [ "tblook01"; "canrdr01" ]

let figure7_subset () =
  let r = List.hd (Edge_harness.Figure7.run ~benches:(tiny_benches ()) ()) in
  Alcotest.(check int) "two rows" 2 (List.length r.Edge_harness.Figure7.rows);
  Alcotest.(check (list string)) "no errors" []
    (List.map fst r.Edge_harness.Figure7.errors);
  List.iter
    (fun row ->
      (* hyper speedup over itself is exactly 1 *)
      match List.assoc_opt "Hyper" row.Edge_harness.Figure7.speedups with
      | Some s -> Alcotest.(check (float 0.0001)) "hyper baseline" 1.0 s
      | None -> Alcotest.fail "missing Hyper")
    r.Edge_harness.Figure7.rows;
  (* the optimizations never lose on these kernels *)
  List.iter
    (fun row ->
      match List.assoc_opt "Both" row.Edge_harness.Figure7.speedups with
      | Some s ->
          Alcotest.(check bool)
            (row.Edge_harness.Figure7.bench ^ " both >= 0.9") true (s >= 0.9)
      | None -> Alcotest.fail "missing Both")
    r.Edge_harness.Figure7.rows

let genalg_study () =
  match Edge_harness.Genalg_study.run () with
  | Error e -> Alcotest.failf "%s" e
  | Ok s ->
      Alcotest.(check bool)
        "merging+unroll at least matches Both" true
        (s.Edge_harness.Genalg_study.speedup_vs_both >= 0.95);
      Alcotest.(check bool)
        "hand config executes fewer blocks" true
        (s.Edge_harness.Genalg_study.blocks_hand
        <= s.Edge_harness.Genalg_study.blocks_both)

let ablation_runs () =
  let entries, errors = Edge_harness.Ablation.run ~benches:[ "tblook01" ] () in
  Alcotest.(check (list string)) "no errors" [] (List.map fst errors);
  Alcotest.(check bool) "six variants" true (List.length entries = 6);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Edge_harness.Ablation.variant ^ " sane ratio") true
        (e.Edge_harness.Ablation.cycles > 0
        && e.Edge_harness.Ablation.baseline_cycles > 0))
    entries

(* a sweep shares by its shape: one compile per (workload, config)
   across machines, and one per distinct config across an ablation's
   variants; sharing changes no cycle count *)
let sweep_shares_compiles () =
  let module M = Edge_sim.Machine in
  let module F = Edge_harness.Figure7 in
  let compiles f =
    let c0 = Edge_harness.Experiment.compiles_performed () in
    let r = f () in
    (Edge_harness.Experiment.compiles_performed () - c0, r)
  in
  let benches = tiny_benches () in
  let n, both =
    compiles (fun () ->
        F.run ~machines:[ M.default; M.inorder_edge ] ~benches ())
  in
  Alcotest.(check int) "2 workloads x 5 configs, both machines" 10 n;
  (match (both, F.run ~machines:[ M.inorder_edge ] ~benches ()) with
  | [ _; inorder ], [ alone ] ->
      Alcotest.(check int) "two in-order rows" 2 (List.length inorder.F.rows);
      Alcotest.(check bool)
        "in-order rows equal a run alone" true (inorder.F.rows = alone.F.rows)
  | _ -> Alcotest.fail "one result per machine");
  let n, _ =
    compiles (fun () -> Edge_harness.Ablation.run ~benches:[ "tblook01" ] ())
  in
  Alcotest.(check int) "ablation: Both once for its three machines" 5 n

let experiment_rejects_unknown () =
  (* a workload whose compiled code misbehaves must be reported, not
     silently scored: simulate by running with too few cycles *)
  let w = Option.get (Edge_workloads.Registry.find "cacheb01") in
  let machine = { Edge_sim.Machine.default with Edge_sim.Machine.max_cycles = 50 } in
  match Edge_harness.Experiment.run_one ~machine w ("Both", Dfp.Config.both) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "watchdog-limited run must error"

let tests =
  [
    Alcotest.test_case "figure7 subset" `Quick figure7_subset;
    Alcotest.test_case "genalg study" `Quick genalg_study;
    Alcotest.test_case "ablation subset" `Quick ablation_runs;
    Alcotest.test_case "sweep shares compiles" `Quick sweep_shares_compiles;
    Alcotest.test_case "experiment error path" `Quick experiment_rejects_unknown;
  ]
