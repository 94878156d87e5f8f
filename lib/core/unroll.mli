(** Static loop unrolling.

    The paper's Section 3.4/Figure 3a relies on unrolling while-style
    loops into a single TRIPS block, with each unrolled iteration's test
    predicated on the previous iteration's test — the implicit
    predicate-AND chain. This pass replicates innermost loop bodies on the
    (non-SSA) CFG; hyperblock formation then if-converts the whole
    unrolled loop into one block when it fits. *)

val run : Edge_ir.Cfg.t -> max_unroll:int -> target_instrs:int -> unit
(** Unrolls every innermost loop by a factor chosen so the unrolled body's
    estimated instruction count stays under [target_instrs] (and at most
    [max_unroll]). *)
