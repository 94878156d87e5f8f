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
  Edge_ir.Cfg.t ->
  Config.t ->
  (compiled, string) result
(** The CFG is consumed (mutated); pass a fresh lowering or a
    {!Edge_ir.Cfg.copy}.

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
    diagnostics describe the program that actually runs. *)
