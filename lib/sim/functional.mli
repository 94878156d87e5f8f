(** Functional (untimed) dataflow executor.

    Runs TRIPS blocks by token pushing, implementing the execution
    semantics of Sections 3–4 — predicate matching, predicate-OR,
    null-token output resolution, LSID-ordered memory within a block,
    exception-bit propagation — without any timing model. It serves as
    the architectural oracle for the cycle simulator and as the
    correctness check for compiled code, and detects malformed blocks
    (double operand delivery, two matching predicates, double branch,
    missing outputs/deadlock). *)

type outcome = {
  exit_taken : string option;  (** [None] when the program halted *)
  faulted : string option;  (** block-boundary exception, if raised *)
}

val run_block :
  Edge_isa.Block.t ->
  regs:int64 array ->
  mem:Edge_isa.Mem.t ->
  stats:Stats.t ->
  (outcome, string) result
(** Executes one block to completion and commits its outputs. [Error]
    means the block is malformed (a compiler bug), not a program fault. *)

val run :
  ?fuel_blocks:int ->
  ?jit:bool ->
  Edge_isa.Program.t ->
  regs:int64 array ->
  mem:Edge_isa.Mem.t ->
  (Stats.t, string) result
(** Runs from the entry block until halt. Program faults (exception bit
    reaching a committed output) are reported as [Error] with a
    ["fault:"] prefix; malformed blocks with a ["malformed:"] prefix.

    By default execution goes through the {!Block_jit} threaded-code
    path; [~jit:false] (or {!set_jit}[ false]) selects this
    interpreter, the reference implementation. Both paths are architecturally identical, including
    [Stats] accounting and malformed-block diagnostics. *)

val set_jit : bool -> unit
(** Sets the process-wide default for [run]'s [?jit] parameter
    (initially [true]). *)

val jit_enabled : unit -> bool

(** The per-block execution engine behind [run_block]/[run], exposed so
    a timing backend can execute blocks with these exact architectural
    semantics and read back what happened. [Inorder_sim] is the
    consumer: it charges cycles for the firings this engine performs,
    which makes result divergence from the functional simulator
    impossible by construction. *)
module Engine : sig
  type state

  val make : Block_image.program -> state
  (** A capacity-sized state reusable across every block of the
      program. *)

  val prepare : state -> Block_image.t -> unit
  (** Point the state at a block image and clear the live prefix. *)

  val exec_block :
    state ->
    regs:int64 array ->
    mem:Edge_isa.Mem.t ->
    stats:Stats.t ->
    (outcome, string) result
  (** Execute the prepared block to completion and commit its outputs
      (stores in LSID order, then register writes, then the branch). *)

  val fired : state -> int -> bool
  (** Did instruction [id] fire during the last [exec_block]? *)

  val left_operand : state -> int -> Edge_isa.Token.t option
  val right_operand : state -> int -> Edge_isa.Token.t option
  (** The operands instruction [id] received (addresses for loads and
      stores live in the left operand). *)
end
