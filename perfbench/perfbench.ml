(* perfbench: the repository's benchmark.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1 [--short]

   Runs one workload (fig7-sweep, fuzz-oracle or serve-mix) in this
   process and prints one JSON line: whether every op was verified, ops
   attempted and failed, and the metrics — the end-to-end ones with
   --trace 0, the per-layer ones with --trace 1.  The amount of work is
   fixed by the workload and --seconds (fig7-sweep always does one pass;
   the others scale with --seconds, sized to take about that long on a
   2-core x86-64 host), never by the clock, so memory, cache occupancy
   and every count are the same on every run.  --short runs a few ops
   of the workload, for the self-check in run.py.  Progress and failed
   ops go to stderr. *)

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("peak_rss_mb", "MB"); ("sim_cycles", "cycles") ]

let per_layer =
  [
    ("code_instrs", "instrs");
    ("sim.inorder_ms", "ms");
    ("sim.inorder_share", "ratio");
    ("sim.inorder_mwords", "Mwords");
    ("sim.inorder_kcycles_per_s", "kcycles/s");
    ("sim.inorder_cycles", "cycles");
    ("sim.inorder_instrs", "instrs");
    ("sim.grid_ms", "ms");
    ("sim.grid_share", "ratio");
    ("sim.grid_mwords", "Mwords");
    ("sim.grid_kcycles_per_s", "kcycles/s");
    ("sim.grid_cycles", "cycles");
    ("sim.grid_instrs", "instrs");
    ("sim.grid_commit_ratio", "ratio");
    ("sim.fsim_ms", "ms");
    ("sim.fsim_share", "ratio");
    ("sim.fsim_mwords", "Mwords");
    ("core.compile_ms", "ms");
    ("core.compile_share", "ratio");
    ("core.compile_mwords", "Mwords");
    ("core.blocks", "count");
    ("core.fanout_moves", "count");
    ("check.checker_ms", "ms");
    ("check.checker_share", "ratio");
    ("fuzz.enum_ms", "ms");
    ("fuzz.enum_share", "ratio");
    ("fuzz.enum_calls", "count");
    ("fuzz.validate_ms", "ms");
    ("fuzz.validate_share", "ratio");
    ("fuzz.validate_mwords", "Mwords");
    ("fuzz.validate_skipped", "count");
    ("fuzz.oracle_skips", "count");
    ("fuzz.gen_ms", "ms");
    ("lang.front_ms", "ms");
    ("lang.front_share", "ratio");
    ("lang.interp_ms", "ms");
    ("lang.interp_mwords", "Mwords");
    ("harness.verify_ms", "ms");
    ("harness.verify_share", "ratio");
    ("serve.warm_p50_ms", "ms");
    ("serve.warm_p99_ms", "ms");
    ("serve.cold_p50_ms", "ms");
    ("serve.cold_p90_ms", "ms");
    ("serve.accept_ms", "ms");
    ("serve.cold_compile_ms", "ms");
    ("serve.cold_sim_ms", "ms");
    ("serve.cold_wait_ms", "ms");
    ("serve.post_cold_warm_ms", "ms");
    ("serve.error_p50_ms", "ms");
    ("serve.fast_hit_ratio", "ratio");
    ("serve.jobs_failed", "count");
    ("serve.protocol_errors", "count");
    ("parallel.mem_hits", "count");
    ("parallel.mem_misses", "count");
    ("parallel.mem_evictions", "count");
    ("parallel.disk_errors", "count");
    ("other_ms", "ms");
    ("other_share", "ratio");
    ("trace.overhead_pct", "%");
  ]

(* the per-layer numbers a traced run's spans give: mean self time per
   op ([_ms]), share of op time ([_share]), minor words per op in
   millions ([_mwords]) and simulated cycles per host second inside
   the backend call; [other] is op time no layer span covers *)
let span_facts (s : Spans.summary) facts =
  let ops = float_of_int (max 1 s.Spans.ops) in
  let layer = Spans.layer s in
  let fact k = Option.value (List.assoc_opt k facts) ~default:0. in
  List.concat_map
    (fun span ->
      let l = layer span in
      let prefix = if span = "op" then "other" else span in
      [
        (prefix ^ "_ms", l.Spans.self_s *. 1000. /. ops);
        (prefix ^ "_share", Report.div l.Spans.self_s s.Spans.op_s);
        (prefix ^ "_mwords", l.Spans.self_words /. 1e6 /. ops);
      ])
    [
      "sim.inorder"; "sim.grid"; "sim.fsim"; "core.compile"; "check.checker"; "fuzz.enum";
      "fuzz.validate"; "lang.front"; "lang.interp"; "harness.verify"; "op";
    ]
  @ List.map
      (fun b ->
        ( b ^ "_kcycles_per_s",
          Report.div (fact (b ^ "_cycles")) (layer b).Spans.self_s /. 1000. ))
      [ "sim.inorder"; "sim.grid" ]
  @ [
      (* what recording the spans cost, as a share of the traced op
         time: an untraced twin of each op would hit the simulators'
         content-addressed block caches and time a warmer program *)
      ( "trace.overhead_pct",
        100. *. Report.div (float_of_int s.Spans.spans *. Spans.cost ()) s.Spans.op_s );
    ]

(* every in-op self time, the residue included, adds up to the op time
   when the spans nest properly *)
let balanced (s : Spans.summary) =
  let covered =
    Hashtbl.fold (fun _ (l : Spans.layer) acc -> acc +. l.Spans.self_s) s.Spans.layers 0.
  in
  Float.abs (covered -. s.Spans.op_s) <= 1e-6 *. Float.max 1e-3 s.Spans.op_s

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload fig7-sweep|fuzz-oracle|serve-mix --seed N \
     --seconds S --trace 0|1 [--short]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let short = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := Option.value (int_of_string_opt n) ~default:(-1);
        parse rest
    | "--seconds" :: n :: rest ->
        seconds := Option.value (int_of_string_opt n) ~default:0;
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := int_of_string t;
        parse rest
    | "--short" :: rest ->
        short := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds < 1 || !trace < 0 then usage ();
  let run =
    match !workload with
    | "fig7-sweep" -> Fig7_sweep.run
    | "fuzz-oracle" -> Fuzz_oracle.run
    | "serve-mix" -> Serve_mix.run
    | _ -> usage ()
  in
  let trace = !trace = 1 in
  let r = run ~seed:!seed ~seconds:!seconds ~trace ~short:!short in
  let fact k = Option.value (List.assoc_opt k r.Report.facts) ~default:0. in
  let facts =
    ("sim_cycles", fact "sim.grid_cycles" +. fact "sim.inorder_cycles") :: r.Report.facts
  in
  let facts, consistent =
    if trace then
      let s = Spans.summarize () in
      (span_facts s facts @ facts, balanced s)
    else (facts, true)
  in
  if not consistent then Report.log "span self times do not add up to op time";
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.assoc_opt name facts with
        | Some v -> (name, unit_, v)
        | None when trace -> (name, unit_, 0.)
        | None -> failwith ("no value for end-to-end metric " ^ name))
      (if trace then per_layer else end_to_end)
  in
  Report.print_result
    ~correct:(consistent && r.Report.failed = 0 && r.Report.attempted > 0)
    r metrics
