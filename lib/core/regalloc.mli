(** Cross-block register allocation.

    Values flowing between TRIPS blocks travel through the 128
    architectural registers (Section 3); within a block they use direct
    targets. Interference is therefore only meaningful at block
    boundaries: temps interfere when simultaneously live into or out of
    some hyperblock, or when both written by the same block. Parameters
    and the return value are pinned to the convention registers. *)

type t

val allocate :
  Edge_ir.Hblock.t list ->
  entry:Edge_ir.Label.t ->
  params:Edge_ir.Temp.t list ->
  retq:Edge_ir.Temp.t ->
  (t, string) result

val reg_of : t -> Edge_ir.Temp.t -> int option
(** [None] for block-local temps. *)

val live_in : t -> Edge_ir.Label.t -> Edge_ir.Temp.Set.t
val live_out : t -> Edge_ir.Label.t -> Edge_ir.Temp.Set.t
