(** Functional (untimed) dataflow executor.

    The {!Dataflow} core driven by depth-first token delivery, with no
    timing model: each result goes straight into its consumers, firing
    every one it completes before the producer's next target is
    visited. It implements the execution semantics of Sections 3–4 —
    predicate matching, predicate-OR, null-token output resolution,
    LSID-ordered memory within a block, exception-bit propagation — by
    running the core, so it shares every rule and malformed-block
    diagnostic (double operand delivery, two matching predicates,
    double branch, missing outputs/deadlock) with the grid backend.
    Block firing is confluent, so the delivery order cannot change
    what a block commits. It serves as the architectural oracle for
    the cycle simulators, as the engine under {!Inorder_sim}, and as
    the correctness check for compiled code. *)

type outcome = {
  exit_taken : string option;  (** [None] when the program halted *)
  faulted : string option;  (** block-boundary exception, if raised *)
}

val run_block :
  Edge_isa.Block.t ->
  regs:int64 array ->
  mem:Edge_isa.Mem.t ->
  stats:Stats.t ->
  (outcome, string) result
(** Executes one block to completion and commits its outputs. [Error]
    means the block is malformed (a compiler bug), not a program fault. *)

val run :
  Edge_isa.Program.t ->
  regs:int64 array ->
  mem:Edge_isa.Mem.t ->
  (Stats.t, string) result
(** Runs from the entry block until halt, for at most
    {!Dataflow.block_limit} blocks. Program faults (exception bit
    reaching a committed output) are reported as [Error] with a
    ["fault:"] prefix naming the first exceptional output in commit
    order; malformed blocks with a ["malformed:"] prefix. *)

val exec_block :
  Dataflow.t -> regs:int64 array -> mem:Edge_isa.Mem.t -> (outcome, string) result
(** The per-block interpreter behind [run_block]/[run]: execute the
    block the frame was {!Dataflow.prepare}d for to completion and
    commit its outputs (see {!Dataflow.commit}). The frame then records
    which instructions fired, the operands they received, how each
    store resolved and the exit taken. Exposed so a timing backend can
    execute blocks with these exact architectural semantics and read
    back what happened: [Inorder_sim] charges cycles for the firings
    performed here, which makes result divergence from the functional
    simulator impossible by construction. *)
