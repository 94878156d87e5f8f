(** Block-resident instructions.

    The predicate field is the paper's central ISA mechanism: two bits per
    instruction that say whether a matching predicate token must arrive on
    the predicate operand before the instruction may fire (Section 3.2).
    [Unpredicated] corresponds to PR=00, [If_true] to PR=11 and [If_false]
    to PR=10. *)

type predication = Unpredicated | If_true | If_false

type t = {
  id : int;  (** slot within the block, 0..127 *)
  opcode : Opcode.t;
  pred : predication;
  imm : int64;  (** immediate; meaningful iff [Opcode.has_immediate] *)
  targets : Target.t list;  (** at most [Opcode.max_targets opcode] *)
  lsid : int;  (** load/store sequence id; -1 for non-memory instructions *)
  exit_idx : int;  (** for [Bro]: index into the block's exit table; -1
                       otherwise *)
}

val make :
  id:int ->
  opcode:Opcode.t ->
  ?pred:predication ->
  ?imm:int64 ->
  ?targets:Target.t list ->
  ?lsid:int ->
  ?exit_idx:int ->
  unit ->
  t

val is_predicated : t -> bool

val predicate_matches : predication -> Token.t -> bool
(** [predicate_matches p tok] tells whether an arriving predicate token
    [tok] matches polarity [p]. Unpredicated instructions match nothing:
    they have no predicate operand. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
