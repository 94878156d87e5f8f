(** Dominator analysis (Cooper–Harvey–Kennedy iterative algorithm) and
    dominance frontiers, over an abstract graph so the same code serves
    the CFG and the reversed region graphs of if-conversion
    (post-dominators). *)

type graph = {
  g_nodes : Label.t list;  (** reverse postorder from the root *)
  g_preds : Label.t -> Label.t list;
}

type t

val compute : graph -> t
(** [g_preds] is asked once per node. *)

val of_cfg : Cfg.t -> t
(** Dominators of the CFG from its entry, over one {!Cfg.pred_table}. *)

val idom : t -> Label.t -> Label.t option
(** Immediate dominator; [None] for the root. *)

val dominates : t -> Label.t -> Label.t -> bool
(** [dominates t a b]: does [a] dominate [b]? Reflexive. *)

val frontier : t -> Label.t -> Label.t list
val children : t -> Label.t -> Label.t list
(** Dominator-tree children. *)
