(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation.

     dune exec bench/main.exe                 -- everything (Figure 7, Section 6
                                                 statistics, genalg case study,
                                                 ablations)
     dune exec bench/main.exe fig7 -- -j 4    -- Figure 7 sweep only, 4 domains
     dune exec bench/main.exe stats           -- Section 6 dynamic statistics
     dune exec bench/main.exe genalg          -- Section 5.3 case study
     dune exec bench/main.exe ablation        -- mechanism ablations
     dune exec bench/main.exe smoke           -- 2 workloads x 2 configs across
                                                 2 domains; fast sanity check
                                                 of the parallel path

   Flags (valid for every mode that runs the sweep):

     -j N          run experiments across N domains (default: cores - 1)
     --json PATH   where fig7/stats/all write the machine-readable results
                   (default BENCH_fig7.json; "-" disables)
     --trace-out P fig7/all: attach a block-level trace to every Figure 7
                   run and write one combined Chrome trace-event JSON
                   (one Perfetto process per workload/config experiment)
     --no-cache    bypass the persistent result cache
     --cache-dir D persistent cache location (default _cache); unchanged
                   (workload, config) pairs hit the cache across runs and
                   skip recompilation and re-simulation entirely

   The paper-facing numbers are simulated cycle counts, not wall-clock:
   simulated cycles are bit-identical for every -j value. *)

module Json = Edge_obs.Json
module Figure7 = Edge_harness.Figure7

(* -- machine-readable results ------------------------------------- *)

let write_file path contents =
  match open_out path with
  | oc ->
      output_string oc contents;
      close_out oc;
      Format.printf "wrote %s@." path
  | exception Sys_error e ->
      (* don't lose a finished sweep to an unwritable path *)
      Printf.eprintf "warning: could not write %s: %s\n%!" path e

let fig7_json ~wall_s ~compile_s ~sim_s ~alloc ~backends (r : Figure7.result) =
  let str s = Json.Str s in
  let int i = Json.Num (float_of_int i) in
  let table f kvs = Json.Obj (List.map (fun (k, v) -> (k, f v)) kvs) in
  let speedups = table (Json.fixed 4) in
  let cycles row =
    [
      ("bench", str row.Figure7.bench);
      ("cycles", table int row.Figure7.cycles);
    ]
  in
  let minor_words, major_words = alloc in
  Json.Obj
    [
      ("experiment", str "fig7");
      ("jobs", int r.Figure7.jobs);
      ( "wall_s",
        Json.Obj
          [
            ("total", Json.fixed 3 wall_s);
            ("compile", Json.fixed 3 compile_s);
            ("sim", Json.fixed 3 sim_s);
          ] );
      ( "alloc",
        Json.Obj
          [
            ("minor_words", Json.fixed 0 minor_words);
            ("major_words", Json.fixed 0 major_words);
          ] );
      ("geomean_speedups", speedups r.Figure7.mean_speedups);
      ( "benches",
        Json.Arr
          (List.map
             (fun row ->
               Json.Obj
                 (cycles row @ [ ("speedups", speedups row.Figure7.speedups) ]))
             r.Figure7.rows) );
      (* per-backend cycle tables: the top-level "benches" stays the
         default backend for compatibility; each entry here is one
         machine description's own sweep, diffed independently by
         bench_compare *)
      ( "backends",
        table
          (fun (br : Figure7.result) ->
            Json.Obj
              [
                ("geomean_speedups", speedups br.Figure7.mean_speedups);
                ( "benches",
                  Json.Arr
                    (List.map
                       (fun row -> Json.Obj (cycles row))
                       br.Figure7.rows) );
              ])
          backends );
      ("pass_counters", table (table int) r.Figure7.pass_totals);
      ( "errors",
        Json.Arr
          (List.map
             (fun (w, e) ->
               Json.Obj [ ("experiment", str w); ("error", str e) ])
             r.Figure7.errors) );
    ]

(* every traced Figure 7 run as one Chrome trace-event file, one
   Perfetto process per workload/config experiment *)
let trace_json (r : Figure7.result) =
  Json.Arr
    (List.concat
       (List.mapi
          (fun pid ((wname, cname), events) ->
            Edge_obs.Trace.chrome ~pid ~name:(wname ^ "/" ^ cname) events)
          r.Figure7.traces))

(* one sweep shared by fig7/stats/all: `stats` used to re-run all 140
   experiments even when fig7 had just produced them. With a JSON file
   to write, the sweep also runs each non-default backend: the machine
   axis of the experiment matrix, written as its own section so backend
   cycle drift is caught independently of the grid numbers. All backends
   go through one Figure7.run, so they share each workload's compiles
   and reference run. *)
let run_sweep ?cache ~jobs ~json ~trace_out () =
  let backends =
    if json = "-" then [] else [ ("inorder_edge", Edge_sim.Machine.inorder_edge) ]
  in
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let results =
    Figure7.run
      ~machines:(Edge_sim.Machine.default :: List.map snd backends)
      ~progress:(fun n -> Printf.eprintf "  %s...\n%!" n)
      ~jobs ?cache ~trace_blocks:(trace_out <> None) ()
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  let alloc =
    ( g1.Gc.minor_words -. g0.Gc.minor_words,
      g1.Gc.major_words -. g0.Gc.major_words )
  in
  let r = List.hd results in
  let sum f = List.fold_left (fun acc br -> acc +. f br) 0. results in
  let compile_s = sum (fun br -> br.Figure7.compile_s)
  and sim_s = sum (fun br -> br.Figure7.sim_s) in
  if json <> "-" then
    write_file json
      (Json.pretty
         (fig7_json ~wall_s ~compile_s ~sim_s ~alloc
            ~backends:(List.combine (List.map fst backends) (List.tl results))
            r));
  Option.iter
    (fun path -> write_file path (Json.pretty (trace_json r)))
    trace_out;
  Format.printf "sweep: %.1fs wall (-j %d; compile %.1fs, sim %.1fs of work)@."
    wall_s r.Figure7.jobs compile_s sim_s;
  r

let pp_stats ppf (r : Figure7.result) =
  Format.fprintf ppf
    "@[<v>Section 6 dynamic statistics (Intra vs Hyper, all benchmarks)@,\
     move instructions: -%.1f%% (paper: -14%%)@,\
     total instructions: -%.1f%% (paper: -2%%)@,\
     blocks executed: -%.1f%% (paper: -5%%)@,"
    (100.0 *. r.Figure7.move_reduction)
    (100.0 *. r.Figure7.instr_reduction)
    (100.0 *. r.Figure7.block_reduction);
  Format.fprintf ppf "@,compiler pass counters (summed over benchmarks):@,";
  List.iter
    (fun (config, counters) ->
      Format.fprintf ppf "  %s:@," config;
      List.iter
        (fun (k, v) -> Format.fprintf ppf "    %-36s %10d@," k v)
        counters)
    r.Figure7.pass_totals;
  Format.fprintf ppf "@]"

let run_genalg ?cache () =
  match Edge_harness.Genalg_study.run ?cache () with
  | Ok s -> Format.printf "%a@." Edge_harness.Genalg_study.pp s
  | Error e -> Format.printf "genalg: error %s@." e

let run_ablation ?cache ~jobs () =
  let entries, errors = Edge_harness.Ablation.run ~jobs ?cache () in
  Format.printf "%a@." Edge_harness.Ablation.pp entries;
  List.iter (fun (w, e) -> Format.printf "error %s: %s@." w e) errors

(* a deliberately tiny sweep (2 workloads x 2 configs) across 2 domains,
   one workload per pool task: exercises the pool and the deterministic
   reassembly in a couple of seconds *)
let run_smoke ?cache () =
  let benches =
    List.map
      (fun name ->
        match Edge_workloads.Registry.find name with
        | Some w -> w
        | None -> failwith ("smoke: " ^ name ^ " missing from registry"))
      [ "tblook01"; "canrdr01" ]
  in
  let configs =
    List.filter
      (fun (n, _) -> n = "Hyper" || n = "Both")
      Dfp.Config.all_paper_configs
  in
  let t0 = Unix.gettimeofday () in
  let r = List.hd (Figure7.run ~benches ~configs ~jobs:2 ?cache ()) in
  Format.printf "%a@." Figure7.pp r;
  (* raw counts, one per line: `make perf-smoke` diffs these between a
     cold and a warm-cache run *)
  List.iter
    (fun row ->
      List.iter
        (fun (n, c) ->
          Format.printf "cycles %s/%s = %d@." row.Figure7.bench n c)
        row.Figure7.cycles)
    r.Figure7.rows;
  Format.printf "smoke: %.2fs wall (-j 2)@." (Unix.gettimeofday () -. t0);
  if r.Figure7.errors <> [] then exit 1

let usage () =
  Printf.eprintf
    "usage: main.exe [fig7|stats|genalg|ablation|smoke|all] [-j N] \
     [--json PATH] [--trace-out PATH] [--no-cache] [--cache-dir DIR] \
     [--check]\n";
  exit 1

let () =
  let mode = ref "all" in
  let jobs = ref (Edge_parallel.Pool.default_jobs ()) in
  let json = ref "BENCH_fig7.json" in
  let trace_out = ref None in
  let use_cache = ref true in
  let cache_dir = ref "_cache" in
  let rec parse = function
    | [] -> ()
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            parse rest
        | _ -> usage ())
    | "--json" :: p :: rest ->
        json := p;
        parse rest
    | "--trace-out" :: p :: rest ->
        trace_out := Some p;
        parse rest
    | "--no-cache" :: rest ->
        use_cache := false;
        parse rest
    | "--cache-dir" :: d :: rest ->
        cache_dir := d;
        parse rest
    | "--check" :: rest ->
        (* per-pass static verifier on every compile; checked runs
           bypass the persistent result cache *)
        Edge_check.Check.set_enabled true;
        parse rest
    | m :: rest when String.length m > 0 && m.[0] <> '-' ->
        mode := m;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let jobs = !jobs and json = !json and trace_out = !trace_out in
  let cache =
    if not !use_cache then None
    else
      match Edge_parallel.Disk_cache.create ~dir:!cache_dir () with
      | c -> Some c
      | exception Sys_error e ->
          Printf.eprintf "warning: cache disabled: %s\n%!" e;
          None
  in
  let report_cache () =
    match cache with
    | Some c ->
        Format.printf "cache: %d hits, %d misses (%s)@."
          (Edge_parallel.Disk_cache.hits c)
          (Edge_parallel.Disk_cache.misses c)
          (Edge_parallel.Disk_cache.dir c)
    | None -> ()
  in
  match !mode with
  | "fig7" ->
      let r = run_sweep ?cache ~jobs ~json ~trace_out () in
      Format.printf "%a@." Figure7.pp r;
      report_cache ()
  | "stats" ->
      let r = run_sweep ?cache ~jobs ~json ~trace_out:None () in
      Format.printf "%a@." pp_stats r
  | "genalg" -> run_genalg ?cache ()
  | "ablation" -> run_ablation ?cache ~jobs ()
  | "smoke" ->
      run_smoke ?cache ();
      report_cache ()
  | "all" ->
      Format.printf "== Figure 7 ==@.";
      let r = run_sweep ?cache ~jobs ~json ~trace_out () in
      Format.printf "%a@." Figure7.pp r;
      (* the Section 6 numbers come from the same sweep result: no
         second pass over the 140 experiments *)
      Format.printf "@.== Section 6 dynamic statistics ==@.";
      Format.printf "%a@." pp_stats r;
      Format.printf "@.== genalg case study (Section 5.3 / Figure 6) ==@.";
      run_genalg ?cache ();
      Format.printf "@.== ablations ==@.";
      run_ablation ?cache ~jobs ();
      report_cache ()
  | _ -> usage ()
