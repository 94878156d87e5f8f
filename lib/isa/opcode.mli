(** Opcodes of the EDGE (TRIPS-like) ISA used throughout this repository.

    The set follows the instructions that appear in the paper (teq, tgti,
    addi, slli, ld, st, bro, mov, movi, null, fsub, fgt, ...) completed into
    a regular family: register and immediate forms of the usual integer
    ALU operations, signed comparisons producing predicates (tests),
    IEEE-754 double-precision arithmetic and tests, sized loads and stores,
    data-movement and constant-generation instructions, block exits, and
    the [Null] instruction used for block-output nullification (Section
    4.2 of the paper). *)

(** Integer binary operations (register or immediate second operand). *)
type ibinop =
  | Add
  | Sub
  | Mul
  | Div  (** signed division; division by zero sets the exception bit *)
  | Rem  (** signed remainder; remainder by zero sets the exception bit *)
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Sra

(** Comparison conditions for test instructions. Tests produce predicate
    values: all-zeros for false, low-bit-one for true. *)
type cond = Eq | Ne | Lt | Le | Gt | Ge

val negate_cond : cond -> cond
(** The condition true exactly where the given one is false, on integer
    operands ([Lt] becomes [Ge]). *)

(** Floating-point (double) binary operations. *)
type fbinop = Fadd | Fsub | Fmul | Fdiv

(** Unary data operations. *)
type unop =
  | Mov  (** copy; also the fanout-tree instruction *)
  | Not  (** bitwise complement *)
  | Neg  (** two's complement negation *)
  | Fneg
  | Fitod  (** signed integer to double *)
  | Fdtoi  (** double to signed integer, truncating *)

(** Memory access widths. Sub-word loads sign-extend. *)
type width = W1 | W4 | W8

type t =
  | Iop of ibinop  (** register-register integer ALU op; 2 operands *)
  | Iopi of ibinop  (** integer ALU op with immediate; 1 operand *)
  | Tst of cond  (** register-register integer test; 2 operands *)
  | Tsti of cond  (** integer test with immediate; 1 operand *)
  | Fop of fbinop  (** register-register double op; 2 operands *)
  | Ftst of cond  (** register-register double test; 2 operands *)
  | Un of unop  (** unary op; 1 operand *)
  | Movi  (** constant generation from the immediate field; 0 operands *)
  | Geni
      (** wide constant generation; 0 operands; never predicated
          (Section 3.1 rule 1 exempts specific constant generators) *)
  | Mov4
      (** multicast move with up to four targets; never predicated;
          evaluated in the fanout ablation (Section 7 future work) *)
  | Ld of width  (** load; operand is the address, immediate is the offset *)
  | St of width  (** store; operands are address and data; has an LSID *)
  | Bro  (** block exit branch; immediate selects the block's exit slot *)
  | Halt  (** block exit terminating the program *)
  | Null
      (** produces a null token for block-output nullification; 0 data
          operands, typically predicated *)
  | Sand
      (** short-circuiting predicate AND (Section 7 future work): fires
          as soon as the left operand arrives false — without waiting for
          the right operand, following C semantics — otherwise when both
          arrive, producing their conjunction. An exception on the right
          operand is filtered when the left is false. *)

val equal : t -> t -> bool

(** {1 Semantics}

    What the data operations compute on 64-bit payloads, for the
    simulators' ALU and the compiler's constant folder alike.  A double
    travels as its IEEE-754 bits. *)

val ibinop : ibinop -> int64 -> int64 -> int64 option
(** [None] for [Div] or [Rem] by zero, which sets the exception bit at
    run time.  Division truncates toward zero; shift amounts are masked
    to 6 bits. *)

val icmp : cond -> int64 -> int64 -> bool
(** Signed integer comparison. *)

val fcmp : cond -> int64 -> int64 -> bool
val fbinop : fbinop -> int64 -> int64 -> int64

val unop : unop -> int64 -> int64
(** [Fdtoi] truncates. *)

val num_operands : t -> int
(** Number of data (left/right) operands the instruction must receive. *)

val max_targets : t -> int
(** Maximum number of targets encodable: 1 when the immediate field is in
    use (the paper notes immediate instructions give up the second target
    field), 2 otherwise, 4 for [Mov4]. [St], [Bro] and [Halt] have none. *)

val predicatable : t -> bool
(** Whether the 2-bit predicate field may be set (Section 3.1, rule 1). *)

val produces_value : t -> bool
(** Whether the instruction delivers a result token to targets. *)

val is_test : t -> bool
(** Tests produce canonical predicate values. Any value producer may feed a
    predicate operand, but tests are what the compiler emits for guards. *)

val is_branch : t -> bool

val has_immediate : t -> bool

val latency : t -> int
(** Execution latency in cycles, excluding operand routing and (for memory
    operations) cache access. Matches the latencies assumed for the TRIPS
    prototype: single-cycle integer ALU, 3-cycle multiply, 24-cycle divide,
    4-cycle floating point add/multiply/convert, 24-cycle floating-point
    divide. *)

val mnemonic : t -> string
(** Assembly mnemonic, e.g. [tgti], [addi], [fsub], [bro], [ld_w8]. *)

val of_mnemonic : string -> t option

val all : t list
(** Every opcode, for exhaustive property tests. *)

val pp : Format.formatter -> t -> unit
