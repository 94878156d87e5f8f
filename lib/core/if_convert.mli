(** If-conversion: a single-entry CFG region becomes one predicated
    hyperblock (Sections 3 and 5 of the paper).

    Control dependences become predicates: each conditional branch's test
    feeds the predicate operands of the instructions control-dependent on
    its edges. Nested control dependence yields the implicit
    predicate-AND chain of Section 3.4 (the guarding test is itself
    predicated); multiple control-dependence edges yield predicate-OR
    guards or, for mixed polarities, a combining constant-generator in
    the style of Figure 6d. Data merges become complementary guarded
    moves (the t5/t6 moves of Figure 4); live-out values become per-exit
    output moves (Figure 6c) unless a single unconditional definition
    reaches every exit. The resulting hyperblock is *naively* predicated
    — every instruction of a predicate block carries its guard — which is
    the paper's Section 6 baseline; the optimizations of Section 5 then
    remove predicates.

    A region containing loop back edges to its own head exits to itself.
    A singleton region degenerates to basic-block code (the paper's BB
    configuration). *)

type region = { head : Edge_ir.Label.t; blocks : Edge_ir.Label.Set.t }

val convert :
  ?m:Edge_obs.Metrics.t ->
  Edge_ir.Cfg.t ->
  Edge_ir.Liveness.t ->
  region ->
  retq:Edge_ir.Temp.t ->
  (Edge_ir.Hblock.t, string) result
(** [retq] is the function-wide canonical temp for the return value
    (allocated once per function, pinned to the result register). [m]
    (optional) receives the pass counters
    ["pass.if_convert.hyperblocks"], ["pass.if_convert.instrs"] and
    ["pass.if_convert.guarded_instrs"]. *)
