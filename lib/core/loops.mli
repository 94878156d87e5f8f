(** Natural-loop analysis over a CFG: back edges via dominators, loop
    bodies by backward reachability, innermost-loop identification. *)

type loop = {
  header : Edge_ir.Label.t;
  latches : Edge_ir.Label.t list;  (** sources of back edges *)
  body : Edge_ir.Label.Set.t;  (** includes the header *)
  innermost : bool;
}

val find : Edge_ir.Cfg.t -> loop list
