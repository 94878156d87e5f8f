(** TRIPS blocks.

    A block is the unit of atomic execution (Section 3): up to 128
    instruction slots of dataflow-connected instructions, up to 32
    register reads, up to 32 register writes, up to 32 store sequence
    identifiers, and an exit table naming successor blocks. Each execution
    must produce every declared output — a token (possibly null) for every
    write slot, a store or null store for every declared LSID, and exactly
    one taken exit — which is how the hardware detects completion and
    performs early mispredication termination (Section 4.3). *)

type read = {
  rslot : int;  (** read slot index, 0..31 *)
  reg : int;  (** architectural register, 0..127 *)
  rtargets : Target.t list;  (** at most 2 *)
}

type write = { wslot : int; wreg : int }

type t = {
  name : string;
  instrs : Instr.t array;  (** instruction ids are array indices *)
  reads : read array;
  writes : write array;
  store_lsids : int list;  (** sorted, distinct LSIDs the block must
                               resolve each execution *)
  exits : string array;  (** exit table indexed by [Bro.exit_idx];
                             the reserved name ["@halt"] stops the
                             machine *)
}

val max_instrs : int (* 128 *)
val max_reads : int (* 32 *)
val max_writes : int (* 32 *)
val max_lsids : int (* 32 *)

val size_in_words : t -> int
(** Code footprint of the block body in 32-bit words (Geni instructions
    occupy three, Mov4 two). *)

val validate : t -> (unit, string list) result
(** Static well-formedness per Section 3.1: resource limits; dense ids;
    target arity, range and slot validity; predicated instructions have
    predicate producers and are predicatable; unpredicated instructions
    receive no predicates; every data operand, write slot and declared
    store LSID has at least one producer; at least one exit instruction;
    all [Bro] exit indices valid. Returns all violations found. *)

val pp : Format.formatter -> t -> unit

val halt_exit : string
(** The reserved exit-table entry that terminates execution. *)
