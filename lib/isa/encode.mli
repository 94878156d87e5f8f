(** Binary instruction encoding.

    Each instruction occupies one 32-bit word laid out as in Figure 2 of
    the paper: opcode (7 bits), predicate field (2 bits), extended opcode
    (5 bits), immediate-or-second-target (9 bits), first target (9 bits).
    The 5-bit extended opcode carries the load/store sequence identifier
    for memory instructions and the exit index for branches. [Geni], the
    wide-constant generator, occupies three words: a header followed by
    the two 32-bit halves of its 64-bit immediate.

    The encoder rejects instructions whose immediate does not fit the
    9-bit signed field (except [Geni]); the code generator is responsible
    for materializing wide constants with [Geni]. It also rejects a
    target that names an instruction outside 0..127 or a write slot
    outside 0..31. *)

val words : Instr.t -> int
(** Number of 32-bit words the instruction occupies (3 for [Geni], else 1). *)

val encode : Instr.t -> (int32 list, string) result

val decode : id:int -> int32 list -> (Instr.t * int32 list, string) result
(** [decode ~id ws] decodes one instruction for slot [id] from the head of
    [ws], returning it and the remaining words. *)

val encode_block_body : Instr.t array -> (int32 array, string) result
val decode_block_body : int32 array -> (Instr.t array, string) result

val roundtrip_errors : Instr.t array -> (int option * string) list
(** Why a block body does not survive an encode/decode round trip
    bit-exactly, in order: each target at I0's left operand (whose
    encoding collides with "no target"), then the first encode or
    decode error, a changed instruction count, or each instruction that
    comes back different. An error carries the id of the instruction it
    is about, if there is one. [[]] when the body round-trips. *)
