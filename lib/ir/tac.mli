(** Three-address code.

    This is the register-transfer form the compiler manipulates (the
    paper's Figures 4–6 are written in it). Instructions are untyped at
    the IR level; floating-point values travel as their IEEE-754 bit
    patterns and the opcode determines interpretation. *)

type operand =
  | T of Temp.t
  | C of int64  (** constant; float constants are stored as their bits *)

type instr =
  | Bin of { dst : Temp.t; op : Edge_isa.Opcode.ibinop; a : operand; b : operand }
  | Fbin of {
      dst : Temp.t;
      op : Edge_isa.Opcode.fbinop;
      a : operand;
      b : operand;
    }
  | Cmp of {
      dst : Temp.t;
      cond : Edge_isa.Opcode.cond;
      fp : bool;
      a : operand;
      b : operand;
    }  (** test instruction; [dst] is a predicate value *)
  | Un of { dst : Temp.t; op : Edge_isa.Opcode.unop; a : operand }
      (** [Un {op = Mov; a = C _}] is constant generation *)
  | Load of {
      dst : Temp.t;
      width : Edge_isa.Opcode.width;
      addr : operand;
      off : int;
    }
  | Store of {
      width : Edge_isa.Opcode.width;
      addr : operand;
      off : int;
      v : operand;
    }
  | Phi of { dst : Temp.t; args : (Label.t * operand) list }
      (** SSA only; eliminated before hyperblock formation *)

type term =
  | Jmp of Label.t
  | Cbr of { c : Temp.t; if_true : Label.t; if_false : Label.t }
  | Ret of operand option
      (** program end; the returned value (if any) is written to the
          result register by code generation *)

val def : instr -> Temp.t option
val uses : instr -> Temp.t list
val term_uses : term -> Temp.t list
val term_succs : term -> Label.t list

val map_operands : (operand -> operand) -> instr -> instr
val with_dst : Temp.t -> instr -> instr

val can_raise : instr -> bool
(** Whether the instruction can set the exception bit: memory accesses and
    integer division/remainder. Used by the path-sensitive predicate
    removal candidate test (Section 5.2, condition 3). *)

val is_cheap : instr -> bool
(** Single-cycle and safe to speculate freely. *)

val pp_instr : Format.formatter -> instr -> unit
val pp_term : Format.formatter -> term -> unit
