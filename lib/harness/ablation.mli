(** Ablations of the microarchitectural mechanisms Section 4 argues for,
    plus the Section 7 extensions, on a representative benchmark subset:

    - early mispredication termination on/off (Section 4.3);
    - aggressive load speculation + dependence predictor vs. in-order
      memory (the LSQ behaviour Section 6 credits for the inter wins);
    - binary [Mov] fanout trees vs. [Mov4] predicate multicast
      (Section 7 "predicate multicast operations");
    - no unrolling;
    - the Section 7 short-circuiting AND chain conversion ([sand]). *)

type entry = {
  bench : string;
  variant : string;
  cycles : int;
  baseline_cycles : int;  (** the Both configuration on the default machine *)
}

val run :
  ?benches:string list ->
  ?jobs:int ->
  ?cache:Edge_parallel.Disk_cache.t ->
  unit ->
  entry list * (string * string) list
(** Returns entries plus errors, in input order for any [jobs]. A pool
    task runs one bench's baseline and variants in one
    {!Experiment.run_workload} call, so the three runs of Both share
    one compile. *)

val pp : Format.formatter -> entry list -> unit
