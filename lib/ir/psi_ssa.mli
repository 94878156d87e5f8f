(** Psi-SSA over the guarded hyperblock IR (de Ferrière): an explicit
    representation of pred-OR merges.  Two layers: a non-mutating
    {e view} (predicate-aware def-use chains and psi argument lists),
    and the {e ineffectuality analysis} — a
    backward fixpoint over the shared gating model ({!Pgate}) proving
    which def sites can never contribute to a store, a block output, or
    an exit decision on any path. *)

(** {1 The Psi-SSA view} *)

type use =
  | Data of int  (** data operand of body site *)
  | Guard of int  (** guard predicate of body site *)
  | Exit_guard of int  (** predicate of the i-th exit *)
  | Out of Temp.t  (** producer of canonical block output *)

type psi_arg = {
  asite : int;  (** body position of the argument's def or null *)
  aguard : Hblock.guard option;  (** predicate under which it delivers *)
  anull : bool;  (** explicit null delivery (Null_write) *)
}

type view = {
  vbody : Hblock.hinstr array;
  vsites : int list Temp.Map.t;
  vuses : use list Temp.Map.t;
  vpreds : Temp.Set.t;  (** temps consumed by any guard *)
  vpsis : psi_arg list Temp.Map.t;
      (** psi-node (argument list, body order) per temp with more than
          one delivery, explicit nulls included *)
}

val view : Hblock.t -> view
val uses_of : view -> Temp.t -> use list
val psi : view -> Temp.t -> psi_arg list option

val promotable_chain : view -> Temp.t -> int list option
(** Body positions whose guards must be removed to promote the upward
    data-dependence chain rooted at the temp to unconditional
    execution, or [None] if promotion is illegal (a psi merge, a
    possible fault, or a predicate definition on the chain). *)

(** {1 Ineffectuality} *)

type ineff = {
  pg : Pgate.t;
  dead : int list;
      (** sites whose effectual region [eff] is empty, body order:
          [eff(i)], which implies [e(i)], is the set of assignments on
          which the site's firing can still contribute to an
          obligation *)
  droppable : int list;
      (** surviving guarded sites whose guard is an ineffectual
          predicate delivery ([fire_unguarded = e]): the guard can be
          dropped without changing the fire region *)
}

val ineffectuality : ?budget:int -> Hblock.t -> (ineff, string) result
(** [Error msg] means the analysis is inconclusive (BDD budget, fixpoint
    divergence) — treat as "skip", never as a verdict. *)
