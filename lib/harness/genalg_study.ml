type study = {
  cycles_bb : int;
  cycles_hyper : int;
  cycles_both : int;
  cycles_both_u1 : int;
  cycles_hand : int;
  speedup_vs_both : float;
  speedup_vs_u1 : float;
  static_instrs_both : int;
  static_instrs_hand : int;
  blocks_both : int;
  blocks_hand : int;
}

let ( let* ) = Result.bind

let run ?(machine = Edge_sim.Machine.default) ?cache () =
  let w = Edge_workloads.Registry.genalg in
  let specs =
    [
      ("BB", Dfp.Config.bb);
      ("Hyper", Dfp.Config.hyper_baseline);
      ("Both", Dfp.Config.both);
      ("Both-u1", { Dfp.Config.both with Dfp.Config.max_unroll = 1 });
      ("Hand", Dfp.Config.hand_optimized);
    ]
  in
  (* one call, so the five runs share one reference run *)
  let* bb, hyper, both, both_u1, hand =
    match
      Experiment.run_workload ?cache w
        (List.map (fun (name, config) -> (name, config, machine, None)) specs)
    with
    | [ bb; hyper; both; both_u1; hand ] ->
        (* first failure in spec order wins, as in the sequential bind
           chain this replaces *)
        let* bb = bb in
        let* hyper = hyper in
        let* both = both in
        let* both_u1 = both_u1 in
        let* hand = hand in
        Ok (bb, hyper, both, both_u1, hand)
    | _ -> assert false
  in
  Ok
    {
      cycles_bb = bb.Experiment.cycles;
      cycles_hyper = hyper.Experiment.cycles;
      cycles_both = both.Experiment.cycles;
      cycles_hand = hand.Experiment.cycles;
      cycles_both_u1 = both_u1.Experiment.cycles;
      speedup_vs_both =
        float_of_int both.Experiment.cycles /. float_of_int hand.Experiment.cycles;
      speedup_vs_u1 =
        float_of_int both_u1.Experiment.cycles
        /. float_of_int hand.Experiment.cycles;
      static_instrs_both = both.Experiment.static_instrs;
      static_instrs_hand = hand.Experiment.static_instrs;
      blocks_both = both.Experiment.stats.Edge_sim.Stats.blocks_committed;
      blocks_hand = hand.Experiment.stats.Edge_sim.Stats.blocks_committed;
    }

let pp ppf r =
  Format.fprintf ppf
    "@[<v>genalg case study (Section 5.3 / Figure 6)@,\
     @,\
     %-28s %10s %10s@,%-28s %10d %10d@,%-28s %10d %10d@,%-28s %10d %10d@,\
     @,\
     merging + max unrolling vs best compiler: %.2fx@,\
     merging + max unrolling vs unroll-less compiler: %.2fx (paper: >2.25x, by hand)@,\
     (BB %d, Hyper baseline %d, Both-without-unrolling %d cycles)@]"
    "" "Both" "Merge+unroll" "cycles" r.cycles_both r.cycles_hand
    "static instructions" r.static_instrs_both r.static_instrs_hand
    "dynamic blocks" r.blocks_both r.blocks_hand r.speedup_vs_both
    r.speedup_vs_u1 r.cycles_bb r.cycles_hyper r.cycles_both_u1
