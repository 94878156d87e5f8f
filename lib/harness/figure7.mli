(** The Figure 7 experiment: speedup of BB / Intra / Inter / Both over
    the hyperblock baseline across the 28 EEMBC-style benchmarks, plus
    the Section 6 dynamic-statistics deltas (moves, total instructions,
    blocks) for the intra configuration.

    [run] fans the workloads across a domain pool ([jobs]); one task
    runs a workload's experiments on every machine, so they share one
    reference run and one compile per config. Rows, speedups and errors
    are assembled in input order and are bit-identical for every [jobs]
    value. *)

type row = {
  bench : string;
  cycles : (string * int) list;  (** per config *)
  speedups : (string * float) list;  (** vs Hyper *)
}

type result = {
  rows : row list;
  mean_speedups : (string * float) list;  (** geometric mean per config *)
  move_reduction : float;  (** Intra vs Hyper, dynamic moves, fraction *)
  instr_reduction : float;  (** Intra vs Hyper, dynamic instructions *)
  block_reduction : float;  (** Intra vs Hyper, dynamic blocks *)
  pass_totals : (string * (string * int) list) list;
      (** per config: compiler "pass.*" counters summed over benchmarks,
          sorted by counter name *)
  errors : (string * string) list;
  jobs : int;  (** parallelism the sweep ran with *)
  compile_s : float;  (** summed wall-clock of the compile phases *)
  sim_s : float;  (** summed wall-clock of the simulation phases *)
  traces : ((string * string) * Edge_obs.Event.t list) list;
      (** with [trace_blocks], in the first machine's result: per
          (bench, config), the block-level event stream of the timed
          cycle-simulator run, in input order *)
}

val run :
  ?machines:Edge_sim.Machine.t list ->
  ?benches:Edge_workloads.Workload.t list ->
  ?configs:(string * Dfp.Config.t) list ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?trace_blocks:bool ->
  ?cache:Edge_parallel.Disk_cache.t ->
  unit ->
  result list
(** One result per machine of [machines] (default
    [[Edge_sim.Machine.default]]), in order. [configs] defaults to the
    five paper configurations and must include ["Hyper"], the speedup
    baseline. [jobs] defaults to 1 (sequential); pass
    [Edge_parallel.Pool.default_jobs ()] to use the host. A shared
    compile or reference run is timed in the run that makes it, the
    first machine's unless the cache answered that one. [trace_blocks]
    (default false) attaches a block-level trace collector to every
    timed run on the first machine and returns the event streams in its
    [traces]; the streams ride back through the pool, so they are
    deterministic for every [jobs] value. [cache] makes every
    non-traced run consult/populate the persistent result cache (see
    {!Experiment.run_workload}); cycles and rows are identical either
    way, only [compile_s]/[sim_s] collapse on warm entries. *)

val pp : Format.formatter -> result -> unit
(** Renders the table and an ASCII rendition of the Figure 7 bars. *)
