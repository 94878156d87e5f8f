(** Cycle-level simulator of the tiled EDGE microarchitecture (the
    tsim-proc substitute used for every number in Section 6).

    A timing model over the {!Dataflow} core: each in-flight block is a
    core frame, so predicate matching and predicate-OR (Section 4.1),
    null-token output resolution (4.2), output-count completion (4.3),
    exception bits (4.4), store-to-load forwarding, deadlock diagnosis
    and commit are the functional simulator's own. This module adds only
    when things happen and what they cost: next-block prediction
    (3 cycles) and 8-cycle block fetch; up to 8 blocks in flight;
    per-tile reservation stations and single-issue-per-tile execution
    with opcode latencies; a one-cycle-per-hop operand network using the
    compiler's placement; cross-frame register forwarding; an LSQ with
    inter-block LSID ordering, aggressive load speculation with a
    dependence predictor and violation flushes; early mispredication
    termination (Section 4.3). Caches, predictor and their accounting
    are the {!Memsys} both backends share. *)

type placement_fn = string -> int array
(** Tile placement per block (from [Dfp.Schedule]); defaults to a
    round-robin mapping when the block is unknown. *)

val revision : string
(** Bumped whenever simulated semantics or [Stats] accounting change;
    the persistent result cache folds it into its keys so stale
    entries invalidate themselves. *)

val run :
  ?machine:Machine.t ->
  ?placement:placement_fn ->
  ?obs:Edge_obs.Obs.t ->
  ?arena:bool ->
  Edge_isa.Program.t ->
  regs:int64 array ->
  mem:Edge_isa.Mem.t ->
  (Stats.t, string) result
(** Runs until halt. Errors: ["fault: ..."] for block-boundary
    exceptions, ["malformed: ..."] for ill-formed blocks or deadlock,
    ["watchdog: ..."] if [max_cycles] is exceeded. On success,
    [regs]/[mem] hold the architectural state and the stats carry the
    cycle count.

    [obs] (default {!Edge_obs.Obs.null}) attaches a structured trace
    sink and/or metrics registry; with the null bundle every
    instrumentation site reduces to a dead branch, so the uninstrumented
    fast path is unchanged.

    [arena] (default [true]) recycles one core frame per frame slot
    across block instances; [false] creates a fresh core frame per
    dispatch, for differential testing of the recycling itself. Results
    are identical either way (the [DFP_ARENA_DEBUG] environment variable
    additionally asserts each recycled frame prefix is indistinguishable
    from fresh arrays). *)
