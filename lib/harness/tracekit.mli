(** Helpers for tracing small `.k` kernels: compile a source string,
    run the cycle simulator with an in-memory collector attached, and
    render the deterministic text form the golden-trace tests compare
    byte-for-byte (see test/test_obs.ml and OBSERVABILITY.md).

    The argument/memory convention matches the fuzzer's
    ([lib/fuzz/gen.ml]): kernels take [(int x, int y, int* A, int* B)]
    with [A]/[B] pointing at two 64-element arrays of a fixed pattern,
    so fuzz-corpus reproducers replay identically here. *)

val default_args : int64 list
val default_mem : unit -> Edge_isa.Mem.t

type traced = {
  events : Edge_obs.Event.t list;  (** in emission order *)
  metrics : Edge_obs.Metrics.t;  (** simulator "sim.*" / "block.*" series *)
  stats : Edge_sim.Stats.t;
}

val compile_source :
  string -> Dfp.Config.t -> (Dfp.Driver.compiled, string) result
(** Parse → lower → compile; errors are prefixed with the failing
    stage. Uncached (golden kernels are tiny). *)

val run_traced :
  ?machine:Edge_sim.Machine.t ->
  ?level:Edge_obs.Trace.level ->
  Dfp.Driver.compiled ->
  (traced, string) result
(** Cycle-simulates under the default argument/memory convention with a
    collector attached ([level] defaults to [Full]). *)

val trace_source :
  ?machine:Edge_sim.Machine.t ->
  ?level:Edge_obs.Trace.level ->
  source:string ->
  config:Dfp.Config.t ->
  unit ->
  (traced, string) result
(** [compile_source] followed by [run_traced]. *)

val render :
  ?machine:string -> kernel:string -> config:string -> traced -> string
(** The golden text format: a [# kernel/config/cycles] header followed
    by one event per line. Integers only — byte-identical across runs,
    platforms and [-j] values. [machine] adds a [# machine:] header
    line; the default machine is left implicit so pre-existing grid
    goldens keep their exact bytes. *)
