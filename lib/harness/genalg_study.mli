(** The Section 5.3 / Figure 6 case study: the genalg roulette-wheel
    loop, comparing the best Figure 7 compiler configuration against
    disjoint instruction merging plus maximal unrolling — the automated
    equivalent of the paper's hand-applied merging, which achieved over
    2.25x on this kernel. *)

type study = {
  cycles_bb : int;
  cycles_hyper : int;
  cycles_both : int;  (** "best performing compiler" *)
  cycles_both_u1 : int;  (** best compiler denied unrolling *)
  cycles_hand : int;  (** merge + maximal unrolling *)
  speedup_vs_both : float;
  speedup_vs_u1 : float;
  static_instrs_both : int;
  static_instrs_hand : int;
  blocks_both : int;
  blocks_hand : int;
}

val run :
  ?machine:Edge_sim.Machine.t ->
  ?cache:Edge_parallel.Disk_cache.t ->
  unit ->
  (study, string) result
(** The five configuration points run in one
    {!Experiment.run_workload} call, sharing one reference run. *)

val pp : Format.formatter -> study -> unit
