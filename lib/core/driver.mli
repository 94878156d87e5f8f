(** End-to-end compilation pipeline.

    SSA construction → classic scalar opts → SSA destruction → (Hyper
    only: loop unrolling, region selection, if-conversion to naively
    predicated hyperblocks) → predicate optimizations per config
    (Sections 5.1–5.3) → register allocation → code generation → spatial
    scheduling. The BB configuration uses singleton regions, so the same
    machinery produces basic-block code. While a generated block exceeds
    machine limits, its region is re-partitioned under half its raw size
    and everything from if-conversion on is attempted again; region
    sizing runs the same loop under naive predication (with
    [aggressive_regions], under the config's own passes). *)

type compiled = {
  program : Edge_isa.Program.t;
  placements : (string * int array) list;
      (** per block: instruction id → execution-tile index *)
  static_fanout_moves : int;
  static_instrs : int;
  static_blocks : int;
  explicit_predicates : int;
  pass_counters : (string * int) list;
      (** per-pass optimization counters ("pass.*", sorted by name) from
          the compile's last attempt: if-conversion output sizes, guards
          removed by fanout reduction, instructions/exits merged, outputs
          promoted, sand chains converted, ineffectual instructions
          deleted.  Every key parses back through {!Pass_id.of_counter}
          (asserted), so counters and [check\[pass=…\]] diagnostics share
          one pass identity. *)
}

val compile_cfg :
  ?check:bool ->
  ?lint:(Opt_ineff.finding -> unit) ->
  ?profile:Edge_obs.Metrics.t ->
  Edge_ir.Cfg.t ->
  Config.t ->
  (compiled, string) result
(** The CFG may be mutated; pass a fresh lowering or a
    {!Edge_ir.Cfg.copy}.

    Each compile names its program in the domain's
    {!Edge_check.Scope}: the digest of the CFG as handed in (blocks,
    parameters, entry and the temp generator's counter) plus [check].
    A new name drops everything stored for the previous program.

    A program compiled under several configs pays once for each
    config-independent prefix: SSA construction and destruction, the
    classic optimizations, unrolling, region selection and region
    sizing.  The scope keeps the program's prefixes, keyed on what the
    prefix reads of the config: the mode, plus [max_unroll] and
    [max_block_instrs] in Hyper mode.  All Hyper configs that share
    those two limits share a prefix, since regions are sized against
    naive predication whatever the config's predicate optimizations.  A
    miss runs the prefix on the caller's CFG and stores a copy; a hit
    finishes on a copy of the stored prefix and leaves the caller's CFG
    untouched.  Compiles with [aggressive_regions] (its sizing runs the
    config's own passes) always run their prefix.  Past the prefix, the
    scope keeps the hyperblocks of the compile's first attempt after
    if-conversion and after each predicate pass, keyed on the prefix,
    the state of {!Opt_ineff}'s test hooks and the passes so far; a
    config whose passes start as a stored stage's did resumes from the
    deepest one.  A later attempt of the fitting loop, and every lint
    and [aggressive_regions] compile, neither reads nor stores stages.  The scope also keeps the passing verdicts of the checker
    (the psi round trip included) and of the fuzz oracle's validator
    and enumerator, keyed on the exact content judged.  A
    compile with [profile] (it times every stage and every check)
    leaves the scope: it reads and stores nothing.  The result is the
    same as a compile in a domain with nothing stored.

    [check] runs the static verifier ({!Edge_check.Check}) after every
    pass — if-conversion, each predicate optimization, register
    allocation, code generation, scheduling, plus the Psi-SSA
    construct/destruct round-trip — and fails compilation with a
    structured [check\[pass=… invariant=…\]] diagnostic on the first
    violation.  Defaults to {!Edge_check.Check.enabled} (set by a
    [--check] flag).

    [lint] switches the ineffectuality pass into report mode: every
    finding is passed to the callback and the code is left untouched
    (deletion is suppressed even when the config enables it), so the
    diagnostics describe the program that actually runs.

    [profile] adds host time per stage, in µs, to the registry's
    ["compile.stage.<stage>_us"] counters.  The stages are the
    {!Pass_id.name} of each pass, [ssa] (construction and destruction),
    [unroll], [regions] (initial region selection), [sizing] (the whole
    sizing loop; its attempts time nothing inside it) and [check]
    (every checker call).  Stages do not nest; the compile's remaining
    time (liveness, program assembly) falls outside them.  Without a
    registry no clock is read.  The result does not depend on it. *)

val hyperblocks :
  Edge_ir.Cfg.t ->
  Config.t ->
  (Edge_ir.Cfg.t * Edge_ir.Hblock.t list, string) result
(** {!compile_cfg}'s view of the CFG after SSA, the classic
    optimizations and unrolling, and of the hyperblocks register
    allocation read in its last attempt: one per emitted block, in
    emission order. *)
