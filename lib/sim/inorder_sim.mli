(** The area-efficient in-order EDGE backend.

    Models the scalar end of the EDGE design space (Gray & Smith's
    soft-processor report): one centralized tile holds the whole block,
    ready instructions issue lowest block index first, [issue_per_tile]
    per cycle, from a window that admits only [window_size] in-flight
    firings, operands move
    through centralized register/memory structures with no operand
    network, and exactly one block is in flight (no speculation: a
    correct exit prediction saves the [predict_cycles] redirect bubble
    between blocks; a mispredict or a cold predictor pays it).

    Architectural semantics are not modeled here at all: every block is
    executed by {!Functional.exec_block}, the functional simulator's
    own per-block interpreter over a {!Dataflow} frame, and the timing
    layer charges cycles for the firings it performed. Results
    therefore cannot diverge from the functional simulator; only cycle
    counts are this module's own. Caches, predictor and their accounting
    are the {!Memsys} the grid backend also holds.

    The timing layer is an incremental list scheduler over the static
    dataflow graph of the fired instructions: each counts its fired
    producers once, an issue counts its consumers down and raises their
    ready cycles, and two int heaps, one by ready cycle and one by block
    index, pick the next issue, so a block's host time grows with its
    fired edges, not with its cycles. The schedule is exact because
    every opcode latency is >= 1: no issue readies an instruction
    within its own cycle. *)

val revision : string
(** Bumped whenever the timing model or [Stats] accounting changes; the
    persistent result cache folds it into its keys. *)

val run :
  ?machine:Machine.t ->
  ?obs:Edge_obs.Obs.t ->
  Edge_isa.Program.t ->
  regs:int64 array ->
  mem:Edge_isa.Mem.t ->
  (Stats.t, string) result
(** Runs until halt; the same contract as {!Cycle_sim.run} ([fault:],
    [malformed:], [watchdog:] errors; architectural state in
    [regs]/[mem]; cycles in the stats). [machine] defaults to
    {!Machine.inorder_edge}; only its timing fields and
    [issue_per_tile]/[window_size] are read — the backend is
    centralized regardless of the grid shape. *)
