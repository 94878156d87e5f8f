(** Control-flow graphs of basic blocks over {!Tac}. *)

type bblock = { label : Label.t; mutable instrs : Tac.instr list; mutable term : Tac.term }

type t = {
  fname : string;
  params : Temp.t list;  (** values live on entry (function parameters) *)
  entry : Label.t;
  mutable blocks : bblock Label.Map.t;
  gen : Temp.Gen.t;  (** fresh-temp supply for later phases *)
}

val create : fname:string -> params:Temp.t list -> entry:Label.t -> gen:Temp.Gen.t -> t
val add_block : t -> bblock -> unit
val block : t -> Label.t -> bblock
val block_opt : t -> Label.t -> bblock option
val remove_block : t -> Label.t -> unit
val labels : t -> Label.t list
val succs : t -> Label.t -> Label.t list

val pred_table : t -> Label.t -> Label.t list
(** [pred_table t] builds every block's predecessor list in one pass over
    the blocks and returns the lookup.  A list is in ascending label
    order and names each predecessor once, also a [Cbr] whose two arms
    share a target.  The table describes the edges as they were when it
    was built: rebuild it after changing them. *)

val rpo : t -> Label.t list
(** Reverse postorder from the entry; unreachable blocks are excluded. *)

val prune_unreachable : t -> unit
val iter_instrs : t -> (Label.t -> Tac.instr -> unit) -> unit
val defs : t -> Label.Set.t Temp.Map.t
(** For every temp, the set of blocks containing a definition. *)

val max_temp : t -> Temp.t
val copy : t -> t
(** Deep copy: the blocks and the temp generator are the copy's own, so
    block edits and temps drawn on one do not show in the other. *)

val pp : Format.formatter -> t -> unit
