(** Threaded-code block JIT for the functional simulator.

    Compiles each decoded {!Block_image} once into pre-resolved closure
    chains: per-target sink closures (operand slot, predicate polarity
    and store-LSID slot resolved at compile time), per-instruction fire
    closures (opcode dispatch specialized via {!Alu.jit1}/{!Alu.jit2}),
    countdown readiness, and direct-recursion token delivery. Compiled
    code is cached per [Program.digest] and shared across domains;
    run-time state is threaded through the closures.

    Architecturally identical to the {!Functional} interpreter,
    including [Stats] accounting and malformed-block diagnostics; the
    interpreter remains the reference path ([tsim --no-jit] /
    {!Functional.set_jit}). *)

val revision : string
(** Identifies the compiled representation and its semantics; salted
    into disk-cache and memoization keys so stale cached results cannot
    mask behavioural drift across JIT changes. *)

val run :
  ?fuel_blocks:int ->
  Edge_isa.Program.t ->
  regs:int64 array ->
  mem:Edge_isa.Mem.t ->
  (Stats.t, string) result
(** Same contract as {!Functional.run} on the interpreter path. *)
