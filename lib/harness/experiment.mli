(** Running a workload under compiler configurations and machines.

    Every run is verified three ways before its numbers count: the
    reference interpreter, the functional dataflow executor and the cycle
    simulator must produce identical return values and final memory
    images.

    A sweep shares work by its shape: {!run_workload} runs all of one
    workload's experiments, so they share one reference-interpreter run
    and one compile per distinct config (the Figure 7 sweep on both
    backends, the ablations' machine-only variants, the genalg study's
    five configs). Nothing outlives the call: no compiled program or
    reference run is kept across calls, so a long-lived job server holds
    only its answers (its result caches). *)

type run = {
  workload : string;
  config : string;
  cycles : int;
  ret : int64;
      (** the kernel's return value, verified identical across the
          reference interpreter and both simulators *)
  stats : Edge_sim.Stats.t;
  static_instrs : int;
  static_blocks : int;
  static_fanout_moves : int;
  explicit_predicates : int;
  pass_counters : (string * int) list;
      (** compiler per-pass optimization counters ("pass.*", sorted) *)
  compile_s : float;
      (** wall-clock seconds spent compiling for this run; ~0 when an
          earlier run of the same {!run_workload} call compiled its
          config *)
  sim_s : float;
      (** wall-clock seconds spent simulating (reference + functional +
          cycle) for this run *)
}

val run_workload :
  ?interp_fuel:int ->
  ?cache:Edge_parallel.Disk_cache.t ->
  ?lint:(Dfp.Opt_ineff.finding -> unit) ->
  Edge_workloads.Workload.t ->
  (string * Dfp.Config.t * Edge_sim.Machine.t * Edge_obs.Obs.t option) list ->
  (run, string) result list
(** One run per (config name, config, machine, obs) experiment, in
    input order. The runs share one reference-interpreter run and one
    compile per distinct config, each made when the first run that the
    disk cache does not answer needs it, so a warm cached call computes
    nothing. Both live only in this call: a pool task that owns the
    workload owns them.

    [obs] instruments the *timed* cycle-simulator run only; the
    functional check always runs uninstrumented.

    [interp_fuel] bounds the reference-interpreter run (statements
    executed); exhausting it fails the run with a
    ["fault: fuel exhausted"] error. The job server sets it (together
    with a bounded [machine.max_cycles]) so an untrusted non-terminating
    kernel produces a timeout error instead of wedging a domain. It
    does not join the cache key: a bounded run that succeeds equals the
    unbounded run, and errors are never cached.

    [cache] consults/populates a persistent result cache keyed by
    kernel source digest, config, machine and simulator revision, so
    an unchanged (workload, config) pair costs one file read across
    processes. A hit replays the stored run with [compile_s]/[sim_s]
    reported as [0.]; a computed run is stored synchronously, so it is
    on disk when the call returns. Runs with an [obs] attached or with
    the static checker enabled ({!Edge_check.Check.enabled}) bypass the
    cache (the caller wants a real, verified run); errors are never
    cached.

    [lint] compiles in ineffectuality-report mode (findings streamed to
    the callback, deletion suppressed — see {!Dfp.Driver.compile_cfg})
    and simulates that artifact. Lint runs bypass the cache: the
    artifact is not the one a normal compile produces. *)

val run_one :
  ?machine:Edge_sim.Machine.t ->
  ?obs:Edge_obs.Obs.t ->
  ?interp_fuel:int ->
  ?cache:Edge_parallel.Disk_cache.t ->
  ?lint:(Dfp.Opt_ineff.finding -> unit) ->
  Edge_workloads.Workload.t ->
  string * Dfp.Config.t ->
  (run, string) result
(** {!run_workload} on one experiment; [machine] defaults to
    {!Edge_sim.Machine.default}. *)

val run_precompiled :
  ?machine:Edge_sim.Machine.t ->
  ?obs:Edge_obs.Obs.t ->
  ?interp_fuel:int ->
  ?cache:Edge_parallel.Disk_cache.t ->
  image_digest:string ->
  Edge_workloads.Workload.t ->
  string * Dfp.Config.t ->
  Dfp.Driver.compiled ->
  (run, string) result
(** Like {!run_one}, but simulating a pre-compiled artifact (a decoded
    pre-encoded block job) instead of compiling the workload's source:
    [compile_s] is reported as [0.]. The full verification battery
    still runs — reference interpreter, functional executor and cycle
    simulator must agree on return value and final memory — so an
    artifact whose semantics diverge from the workload source fails
    the run rather than producing unchecked numbers. [image_digest]
    (the hex digest of the raw artifact bytes) salts the cache key, so
    a shipped artifact never shares cache entries with source-compiled
    runs and a corrupt or hostile image cannot poison them. *)

val cache_key :
  Edge_workloads.Workload.t ->
  string ->
  Dfp.Config.t ->
  Edge_sim.Machine.t ->
  string
(** The persistent-cache key of one run: workload source digest, config
    (name + fingerprint), machine description and backend revision.
    Exposed so the machine tests can assert that two
    distinct machines never share a cache entry. *)

val compile :
  ?check:bool ->
  ?lint:(Dfp.Opt_ineff.finding -> unit) ->
  Edge_workloads.Workload.t ->
  Dfp.Config.t ->
  (Dfp.Driver.compiled, string) result
(** One compilation, counted by {!compiles_performed}. [check] and
    [lint] are forwarded to {!Dfp.Driver.compile_cfg}. *)

val lint_source :
  ?check:bool ->
  string ->
  Dfp.Config.t ->
  (Dfp.Opt_ineff.finding list, string) result
(** Compile raw kernel source in ineffectuality-report mode and return
    the findings (sorted, deduplicated across the compile's attempts). *)

val lint :
  ?check:bool ->
  Edge_workloads.Workload.t ->
  Dfp.Config.t ->
  (Dfp.Opt_ineff.finding list, string) result
(** {!lint_source} over a registry workload's kernel source. *)

val setup_run : Edge_workloads.Workload.t -> int64 array * Edge_isa.Mem.t
(** Fresh register file and memory image for one execution of the
    workload, with arguments placed per the calling convention. *)

val compiles_performed : unit -> int
(** Process-wide count of {!compile} calls, those {!run_workload}
    makes included (a disk-cache hit compiles nothing). The serve tests
    assert that 5 identical jobs stampeding a server behind a blocker
    add at most 2: single-flight dedup collapses the stampede into one
    compile. The harness tests assert that a sweep compiles each
    (workload, config) once, whatever its machines. *)
