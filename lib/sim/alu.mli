(** Shared ALU semantics for both simulators.

    Payloads are computed by the opcode semantics of {!Edge_isa.Opcode}
    (the compiler's constant folder uses the same functions); division
    by zero sets the exception bit; sub-word memory semantics live in
    {!Edge_isa.Mem}. Results inherit null and exception tags from their
    operands (Sections 4.2 and 4.4). *)

val exec :
  Edge_isa.Opcode.t ->
  imm:int64 ->
  left:Edge_isa.Token.t ->
  right:Edge_isa.Token.t ->
  Edge_isa.Token.t
(** Pure result computation for non-memory, non-branch opcodes; operands
    beyond the opcode's arity (and a short-circuited [Sand]'s right
    operand) are ignored. Memory and branch opcodes must not be passed
    here ([Invalid_argument]). *)
