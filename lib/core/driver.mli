(** End-to-end compilation pipeline.

    SSA construction → classic scalar opts → SSA destruction → (Hyper
    only: loop unrolling, region selection, if-conversion to naively
    predicated hyperblocks) → predicate optimizations per config
    (Sections 5.1–5.3) → register allocation → code generation → spatial
    scheduling. The BB configuration uses singleton regions, so the same
    machinery produces basic-block code. Regions whose generated blocks
    exceed machine limits are split and retried. *)

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
          the final generate attempt: if-conversion output sizes, guards
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

    A program compiled under several configs pays once for each
    config-independent prefix: SSA construction and destruction, the
    classic optimizations, unrolling, region selection and region
    sizing.  Each domain keeps the prefixes of the last program it
    compiled, keyed on the digest of the CFG as handed in (blocks,
    parameters, entry and the temp generator's counter), on [check], and
    on what the prefix reads of the config: the mode, plus [max_unroll]
    and [max_block_instrs] in Hyper mode.  All Hyper configs that share
    those two limits share a prefix, since regions are sized against
    naive predication whatever the config's predicate optimizations.  A
    miss runs the prefix on the caller's CFG and stores a copy; a hit
    finishes on a copy of the stored prefix and leaves the caller's CFG
    untouched.  Compiles with [profile] (it times every stage) and with
    [aggressive_regions] (its sizing runs the config's own passes)
    always run their prefix and store nothing.  The result is the same
    as a compile in a domain with no stored prefix.

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
    region-fitting loop, its throwaway compiles included) and [check]
    (every checker call).  Stages do not nest; the compile's remaining
    time (liveness, program assembly) falls outside them.  Without a
    registry no clock is read.  The result does not depend on it. *)
