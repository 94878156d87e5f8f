(** Threaded-code block JIT for the functional simulator.

    A specialization of the {!Functional} interpreter, checked against
    it: each decoded {!Block_image} compiles once into pre-resolved
    closure chains — per-target sink closures (operand slot and
    predicate polarity resolved at compile time), per-instruction fire
    closures (opcode dispatch specialized via {!Alu.jit1}/{!Alu.jit2}),
    countdown readiness, and direct-recursion token delivery. The
    closures run over the {!Dataflow} core's frame and take its store
    resolution, forwarding, completion and commit. Compiled code is
    cached per [Program.digest] and shared across domains; run-time
    state is threaded through the closures.

    Architecturally identical to the interpreter, including [Stats]
    accounting and malformed-block diagnostics; the interpreter remains
    the reference path ([tsim --no-jit] / {!Functional.set_jit}). *)

val revision : string
(** Identifies the compiled representation and its semantics; salted
    into disk-cache and memoization keys so stale cached results cannot
    mask behavioural drift across JIT changes. *)

val run :
  Edge_isa.Program.t ->
  regs:int64 array ->
  mem:Edge_isa.Mem.t ->
  (Stats.t, string) result
(** Same contract as {!Functional.run} on the interpreter path. *)
