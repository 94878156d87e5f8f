(** Hyperblock region selection.

    Innermost loops whose (already unrolled) bodies fit the block budget
    become self-looping regions; remaining blocks are grown greedily into
    single-entry acyclic regions (if-conversion of diamonds and chains),
    never crossing loop headers. Every region head doubles as the TRIPS
    block name, so every control transfer target is a region head. *)

val select : Edge_ir.Cfg.t -> budget:int -> If_convert.region list
(** Regions cover the CFG exactly; the first region's head is the entry.
    [budget] is an instruction-count estimate bound (pre-overhead). *)

val singletons : Edge_ir.Cfg.t -> If_convert.region list
(** One region per basic block: the BB configuration. *)

val select_within :
  Edge_ir.Cfg.t -> If_convert.region -> budget:int -> If_convert.region list
(** Re-partition an oversized region into smaller regions under a tighter
    budget (used when naive predication overflows the block limits). *)

val estimate : Edge_ir.Cfg.t -> Edge_ir.Label.Set.t -> int
