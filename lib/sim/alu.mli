(** Shared ALU semantics for both simulators.

    Division truncates toward zero and division by zero sets the
    exception bit; shift amounts are masked to 6 bits; [Fdtoi] truncates;
    sub-word memory semantics live in {!Edge_isa.Mem}. Results inherit
    null and exception tags from their operands (Sections 4.2 and 4.4). *)

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

val jit1 :
  Edge_isa.Opcode.t -> imm:int64 -> Edge_isa.Token.t -> Edge_isa.Token.t
(** Compile-time specialization of [exec] for 1-operand ALU opcodes
    ([Iopi]/[Tsti]/[Un]/[Mov4]): resolves the opcode and immediate once,
    returning the residual per-execution closure. Raises
    [Invalid_argument] when partially applied to any other opcode. *)

val jit2 : Edge_isa.Opcode.t -> Edge_isa.Token.t -> Edge_isa.Token.t -> Edge_isa.Token.t
(** Compile-time specialization of [exec] for 2-operand ALU opcodes
    ([Iop]/[Tst]/[Fop]/[Ftst]/[Sand]). Raises [Invalid_argument] on
    others. *)
