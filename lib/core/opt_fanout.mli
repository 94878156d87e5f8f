(** Predicate fanout reduction (Section 5.1) — the paper's *intra*
    configuration.

    Removes the explicit predicate from every instruction satisfying the
    paper's four conditions: (1) not a branch or store, (2) does not
    define a predicate, (3) does not define a block output (register
    live-out), (4) is not one of multiple definitions of a temp (the SSA
    φ condition). What remains guarded are dependence-chain heads and
    block outputs; interior instructions become implicitly predicated —
    they can only fire when a guarded ancestor fires — or safely
    speculative (hoisted), with the exception bit covering faulting
    speculation (Section 4.4). The payoff is fewer predicate consumers,
    hence smaller software fanout trees (fewer move instructions). *)

val run : ?m:Edge_obs.Metrics.t -> Edge_ir.Hblock.t -> unit
(** [m] (optional) receives the pass counter
    ["pass.fanout.guards_removed"]. *)
