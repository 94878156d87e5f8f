(** Helpers for tracing small `.k` kernels: compile a source string,
    run the cycle simulator with an in-memory collector attached, and
    render the deterministic text form the golden-trace tests compare
    byte-for-byte (see test/test_obs.ml and OBSERVABILITY.md).

    This module defines the one kernel convention that the fuzzer
    ([lib/fuzz/gen.ml]) and dfpd's source jobs share: kernels take
    [(int x, int y, int* A, int* B)] with [A]/[B] pointing at two
    [array_len]-element arrays of a fixed pattern, so fuzz-corpus
    reproducers and served kernels replay identically here. *)

val array_len : int

val mem_size : int
(** Bytes of memory a kernel runs in. *)

val default_args : int64 list
(** [x = 7], [y = -3], [A], [B]. *)

val setup : Edge_isa.Mem.t -> int64 list
(** Fill the two arrays into a memory image and return
    [default_args]: the shape of {!Edge_workloads.Workload.t}'s
    [setup]. *)

val default_mem : unit -> Edge_isa.Mem.t
(** A fresh [mem_size] image after {!setup}. *)

val default_regs : unit -> int64 array
(** A register file holding [default_args] in the parameter registers. *)

val placement : Dfp.Driver.compiled -> Edge_sim.Cycle_sim.placement_fn
(** The compiler's grid placement of each block ([[||]] if none). *)

type traced = {
  events : Edge_obs.Event.t list;  (** in emission order *)
  metrics : Edge_obs.Metrics.t;  (** simulator "sim.*" / "block.*" series *)
  stats : Edge_sim.Stats.t;
}

val compile_source :
  string -> Dfp.Config.t -> (Dfp.Driver.compiled, string) result
(** Parse → lower → compile; errors are prefixed with the failing
    stage. Uncached (golden kernels are tiny). *)

val trace_source :
  ?machine:Edge_sim.Machine.t ->
  ?level:Edge_obs.Trace.level ->
  source:string ->
  config:Dfp.Config.t ->
  unit ->
  (traced, string) result
(** [compile_source], then a cycle simulation under the default
    argument/memory convention with a collector attached ([level]
    defaults to [Full]). *)

val header :
  ?machine:string ->
  kernel:string ->
  config:string ->
  cycles:int ->
  unit ->
  (string * string) list
(** The golden header fields: kernel, config, [machine] if given (the
    default machine is left implicit so pre-existing grid goldens keep
    their exact bytes), cycles. *)

val render :
  ?machine:string -> kernel:string -> config:string -> traced -> string
(** The golden text format: the {!header} lines followed by one event
    per line. Integers only — byte-identical across runs, platforms and
    [-j] values. *)
