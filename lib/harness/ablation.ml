type entry = {
  bench : string;
  variant : string;
  cycles : int;
  baseline_cycles : int;
}

let default_benches =
  [ "a2time01"; "autcor00"; "conven00"; "matrix01"; "rotate01"; "viterb00" ]

let variants =
  [
    ( "no-early-termination",
      ( { Edge_sim.Machine.default with Edge_sim.Machine.early_termination = false },
        Dfp.Config.both ) );
    ( "in-order-memory",
      ( { Edge_sim.Machine.default with Edge_sim.Machine.aggressive_loads = false },
        Dfp.Config.both ) );
    ("mov4-fanout", (Edge_sim.Machine.default, Dfp.Config.mov4));
    ( "merge",
      (Edge_sim.Machine.default, Dfp.Config.merge) );
    ( "no-unroll",
      ( Edge_sim.Machine.default,
        { Dfp.Config.both with Dfp.Config.max_unroll = 1 } ) );
    ("sand", (Edge_sim.Machine.default, Dfp.Config.sand));
  ]

let run ?(benches = default_benches) ?(jobs = 1) ?cache () =
  (* one pool task per bench: its baseline and variants share one
     reference run, and the three runs of Both one compile *)
  let experiments =
    ("Both", Dfp.Config.both, Edge_sim.Machine.default, None)
    :: List.map
         (fun (vname, (machine, config)) -> (vname, config, machine, None))
         variants
  in
  let outcomes =
    Edge_parallel.Pool.run ~jobs
      (fun name ->
        Option.map
          (fun w -> Experiment.run_workload ?cache w experiments)
          (Edge_workloads.Registry.find name))
      benches
  in
  let errors = ref [] in
  let entries = ref [] in
  List.iter2
    (fun name outcome ->
      match outcome with
      | None -> errors := (name, "unknown workload") :: !errors
      | Some runs -> (
          match List.hd runs with
          | Error e -> errors := (name, e) :: !errors
          | Ok base ->
              List.iter2
                (fun (vname, _) r ->
                  match r with
                  | Error e -> errors := (name ^ "/" ^ vname, e) :: !errors
                  | Ok r ->
                      entries :=
                        {
                          bench = name;
                          variant = vname;
                          cycles = r.Experiment.cycles;
                          baseline_cycles = base.Experiment.cycles;
                        }
                        :: !entries)
                variants (List.tl runs)))
    benches outcomes;
  (List.rev !entries, List.rev !errors)

let pp ppf entries =
  let open Format in
  fprintf ppf "@[<v>ablations (cycles relative to Both on the default machine)@,@,";
  fprintf ppf "%-12s %-22s %10s %10s %8s@," "benchmark" "variant" "cycles"
    "baseline" "ratio";
  List.iter
    (fun e ->
      fprintf ppf "%-12s %-22s %10d %10d %8.2f@," e.bench e.variant e.cycles
        e.baseline_cycles
        (float_of_int e.cycles /. float_of_int e.baseline_cycles))
    entries;
  fprintf ppf "@]"
