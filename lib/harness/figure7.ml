module Stats = Edge_sim.Stats

type row = {
  bench : string;
  cycles : (string * int) list;
  speedups : (string * float) list;
}

type result = {
  rows : row list;
  mean_speedups : (string * float) list;
  move_reduction : float;
  instr_reduction : float;
  block_reduction : float;
  pass_totals : (string * (string * int) list) list;
  errors : (string * string) list;
  jobs : int;
  compile_s : float;
  sim_s : float;
  traces : ((string * string) * Edge_obs.Event.t list) list;
}

let geomean = function
  | [] -> 1.0
  | xs ->
      exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(* one machine's table: [per_bench] holds, for each bench, its
   (outcome, block events) per config, in [configs] order *)
let assemble ~jobs ~configs benches per_bench =
  let config_names = List.map fst configs in
  let cells =
    List.map2
      (fun w outcomes ->
        (w.Edge_workloads.Workload.name, List.combine config_names outcomes))
      benches per_bench
  in
  let errors = ref [] in
  let compile_s = ref 0.0 and sim_s = ref 0.0 in
  let dyn_moves = Hashtbl.create 8 in
  let dyn_instrs = Hashtbl.create 8 in
  let dyn_blocks = Hashtbl.create 8 in
  let bump tbl key v =
    Hashtbl.replace tbl key (v + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  (* per-config compiler pass counters, summed across benchmarks *)
  let pass_tbl : (string, (string, int) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let bump_passes cname counters =
    let tbl =
      match Hashtbl.find_opt pass_tbl cname with
      | Some t -> t
      | None ->
          let t = Hashtbl.create 16 in
          Hashtbl.replace pass_tbl cname t;
          t
    in
    List.iter (fun (k, v) -> bump tbl k v) counters
  in
  let rows =
    List.filter_map
      (fun (bench, outcomes) ->
        let runs =
          List.filter_map
            (fun (cname, (outcome, _)) ->
              match outcome with
              | Ok r ->
                  compile_s := !compile_s +. r.Experiment.compile_s;
                  sim_s := !sim_s +. r.Experiment.sim_s;
                  bump_passes cname r.Experiment.pass_counters;
                  Some (cname, r)
              | Error e ->
                  errors := (bench ^ "/" ^ cname, e) :: !errors;
                  None)
            outcomes
        in
        match List.assoc_opt "Hyper" runs with
        | Some base when List.length runs = List.length configs ->
            List.iter
              (fun (name, (r : Experiment.run)) ->
                bump dyn_moves name r.Experiment.stats.Stats.moves_executed;
                bump dyn_instrs name r.Experiment.stats.Stats.instrs_executed;
                bump dyn_blocks name r.Experiment.stats.Stats.blocks_committed)
              runs;
            Some
              {
                bench;
                cycles = List.map (fun (n, r) -> (n, r.Experiment.cycles)) runs;
                speedups =
                  List.map
                    (fun (n, r) ->
                      ( n,
                        float_of_int base.Experiment.cycles
                        /. float_of_int r.Experiment.cycles ))
                    runs;
              }
        | _ -> None)
      cells
  in
  let mean_speedups =
    List.map
      (fun name ->
        ( name,
          geomean (List.filter_map (fun r -> List.assoc_opt name r.speedups) rows) ))
      config_names
  in
  let reduction tbl =
    match (Hashtbl.find_opt tbl "Hyper", Hashtbl.find_opt tbl "Intra") with
    | Some h, Some i when h > 0 -> float_of_int (h - i) /. float_of_int h
    | _ -> 0.0
  in
  let pass_totals =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt pass_tbl name with
        | None -> None
        | Some tbl ->
            let kvs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
            Some
              (name, List.sort (fun (a, _) (b, _) -> String.compare a b) kvs))
      config_names
  in
  let traces =
    List.concat_map
      (fun (bench, outcomes) ->
        List.filter_map
          (fun (cname, (_, events)) ->
            if events = [] then None else Some ((bench, cname), events))
          outcomes)
      cells
  in
  {
    rows;
    mean_speedups;
    move_reduction = reduction dyn_moves;
    instr_reduction = reduction dyn_instrs;
    block_reduction = reduction dyn_blocks;
    pass_totals;
    errors = List.rev !errors;
    jobs;
    compile_s = !compile_s;
    sim_s = !sim_s;
    traces;
  }

let run ?(machines = [ Edge_sim.Machine.default ])
    ?(benches = Edge_workloads.Registry.eembc)
    ?(configs = Dfp.Config.all_paper_configs) ?(progress = fun _ -> ())
    ?(jobs = 1) ?(trace_blocks = false) ?cache () =
  (* one pool task per workload, so its experiments on every machine
     share one reference run and one compile per config; results come
     back in input order, so rows and errors are deterministic
     regardless of completion order *)
  let per_bench =
    Edge_parallel.Pool.run ~jobs
      (fun w ->
        progress w.Edge_workloads.Workload.name;
        let experiments =
          List.concat
            (List.mapi
               (fun k machine ->
                 List.map
                   (fun (name, config) ->
                     if trace_blocks && k = 0 then
                       (* block-level events of the first machine's runs
                          only: a couple of events per executed block,
                          cheap enough to ship back across the pool *)
                       let obs, events, _ =
                         Edge_obs.Obs.collector ~level:Edge_obs.Trace.Blocks
                           ()
                       in
                       ((name, config, machine, Some obs), events)
                     else ((name, config, machine, None), fun () -> []))
                   configs)
               machines)
        in
        let outcomes =
          Experiment.run_workload ?cache w (List.map fst experiments)
        in
        List.map2 (fun (_, events) o -> (o, events ())) experiments outcomes)
      benches
  in
  let n = List.length configs in
  List.mapi
    (fun k _ ->
      assemble ~jobs ~configs benches
        (List.map (List.filteri (fun i _ -> i / n = k)) per_bench))
    machines

let pp ppf r =
  let open Format in
  let config_names = List.map fst r.mean_speedups in
  fprintf ppf "@[<v>";
  fprintf ppf
    "Figure 7: speedup over the Hyper baseline (cycles(Hyper)/cycles(X))@,@,";
  fprintf ppf "%-14s" "benchmark";
  List.iter (fun n -> fprintf ppf "%10s" n) config_names;
  fprintf ppf "@,";
  List.iter
    (fun row ->
      fprintf ppf "%-14s" row.bench;
      List.iter
        (fun n ->
          match List.assoc_opt n row.speedups with
          | Some s -> fprintf ppf "%10.2f" s
          | None -> fprintf ppf "%10s" "-")
        config_names;
      fprintf ppf "@,")
    r.rows;
  fprintf ppf "%-14s" "geomean";
  List.iter
    (fun n ->
      match List.assoc_opt n r.mean_speedups with
      | Some s -> fprintf ppf "%10.2f" s
      | None -> fprintf ppf "%10s" "-")
    config_names;
  fprintf ppf "@,@,";
  (* ASCII bars for the headline configurations *)
  fprintf ppf "speedup bars (x0.1 per char, | marks 1.0):@,";
  List.iter
    (fun row ->
      List.iter
        (fun n ->
          if n <> "Hyper" then
            match List.assoc_opt n row.speedups with
            | Some s ->
                let len = int_of_float (s *. 10.0) in
                let bar = String.make (min 40 (max 1 len)) '#' in
                fprintf ppf "%-14s %-6s %s@," row.bench n
                  (if len >= 10 then
                     String.sub bar 0 (min 10 (String.length bar))
                     ^ "|"
                     ^ String.sub bar 10 (String.length bar - min 10 (String.length bar))
                   else bar)
            | None -> ())
        config_names)
    r.rows;
  fprintf ppf "@,Section 6 dynamic-statistics deltas (Intra vs Hyper):@,";
  fprintf ppf "  move instructions: -%.1f%% (paper: -14%%)@,"
    (100.0 *. r.move_reduction);
  fprintf ppf "  total instructions: -%.1f%% (paper: -2%%)@,"
    (100.0 *. r.instr_reduction);
  fprintf ppf "  blocks executed: -%.1f%% (paper: -5%%)@,"
    (100.0 *. r.block_reduction);
  if r.errors <> [] then begin
    fprintf ppf "@,errors:@,";
    List.iter (fun (w, e) -> fprintf ppf "  %s: %s@," w e) r.errors
  end;
  fprintf ppf "@]"
