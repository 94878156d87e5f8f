(** Decode-once block images.

    A block image is an immutable, flat, int-indexed view of a
    [Block.t] with every per-fetch derivation done ahead of time:
    operand arities, predication, latencies, target arrays, stat
    classes, register-write slots, LSID→store-slot tables, code
    footprint and seed instructions. Both simulators consume images so
    a block fetched a million times is decoded exactly once — the
    software analogue of the TRIPS pre-decoded block header and
    instruction store. *)

module Block = Edge_isa.Block
module Instr = Edge_isa.Instr
module Opcode = Edge_isa.Opcode
module Target = Edge_isa.Target
module Program = Edge_isa.Program

(** Statistic class of an instruction: which [Stats] counter a firing
    bumps besides [instrs_executed]. [Sand] is a test. *)
type stat_class = Smove | Snull | Stest | Splain

type inst = {
  op : Opcode.t;
  pred : Instr.predication;
  predicated : bool;
  arity : int;  (** [Opcode.num_operands op] *)
  imm : int64;
  lsid : int;
  exit_idx : int;
  latency : int;  (** [Opcode.latency op] *)
  targets : Target.t array;
  is_store : bool;
  pred_fanout : int;
      (** number of [To_instr Pred] targets — static predicate consumers *)
  cls : stat_class;
  mn : string;  (** [Opcode.mnemonic op] *)
}

type t = {
  block : Block.t;  (** the source block, for anything not pre-decoded *)
  index : int;  (** position in the enclosing program image; 0 standalone *)
  name : string;
  name_hash : int;  (** [Predictor.block_hash name], precomputed *)
  instrs : inst array;
  n : int;  (** number of instructions *)
  reads : Block.read array;
  rtargets : Target.t array array;  (** per read slot *)
  write_regs : int array;  (** write slot -> architectural register *)
  n_writes : int;
  wslot_of_reg : int array;
      (** register -> lowest write slot naming it, or -1; length 128 *)
  store_lsids : int array;  (** declaration order *)
  store_order : int array;  (** store slots sorted by ascending LSID *)
  n_stores : int;
  store_slot : int array;  (** lsid -> store slot, or -1; see {!store_slot_of} *)
  outputs : int;  (** register writes + declared stores + 1 branch *)
  size_words : int;  (** [Block.size_in_words block] *)
  seeds : int array;
      (** ids of 0-operand unpredicated instructions, ascending — the
          instructions dispatched eagerly at block start *)
  pred_ids : int array;
      (** ids of predicated instructions, ascending — the candidates
          for the mispredication count at commit *)
  exits : string array;
  exit_tgts : string option array;
      (** per exit: the successor block's name, [None] for halt *)
}

type program = {
  source : Program.t;
  blocks : t array;  (** program order *)
  by_name : (string, int) Hashtbl.t;
  entry : int;  (** index of the entry block, -1 if missing *)
  max_n : int;  (** max instruction count across blocks *)
  max_writes : int;
  max_stores : int;
}

val of_block : ?index:int -> Block.t -> t
(** Decode a standalone block (used by [Functional.run_block]). *)

val build : Program.t -> program
(** Decode every block of a program, uncached. *)

val of_program : Program.t -> program
(** [build], memoised in a bounded content-addressed table keyed by
    [Program.digest]. Thread-safe; shared across domains. The last
    program a domain imaged is answered by physical equality, without
    a digest: a compiled program must not be mutated in place. *)

val find_index : program -> string -> int option

val store_slot_of : t -> int -> int
(** Store slot declared for an LSID, or -1. O(1) for well-formed LSIDs
    with a linear-scan fallback preserving the old list-search
    semantics for out-of-range ones. *)
