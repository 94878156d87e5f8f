(** The dataflow core: one block instance's state and the token
    semantics of Sections 3–4, shared by every executor.

    {!Functional} drives it by depth-first token delivery, and
    {!Inorder_sim} through it; {!Cycle_sim}'s frames embed it and add
    only timing, placement, cross-frame LSQ ordering and speculation.
    Malformed blocks (compiler bugs, not program faults) raise
    {!Malformed}. *)

exception Malformed of string

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Malformed} with a formatted message. *)

val block_limit : int
(** Blocks a functional run may execute before it reports
    ["malformed: fuel exhausted"]. *)

type stored = {
  addr : int64;
  value : int64;
  width : Edge_isa.Opcode.width;
  exc : bool;
}

type store_res = Unresolved | Stored of stored | Nulled

(** Live prefix: [img.n] instructions, [img.n_writes] write slots,
    [img.n_stores] store slots; slots beyond it are stale capacity.
    Operand slots hold a token only where their set flag is true. *)
type t = {
  mutable img : Block_image.t;
  mutable stats : Stats.t;  (** where firings and commits are counted *)
  left : Edge_isa.Token.t array;
  lset : bool array;
  right : Edge_isa.Token.t array;
  rset : bool array;
  pred_matched : bool array;  (** a matching predicate arrived *)
  pred_exc : bool array;  (** ... carrying an exception *)
  fired : bool array;
  writes : Edge_isa.Token.t array;
  wset : bool array;
  stores : store_res array;  (** per declared store slot *)
  mutable branch_set : bool;
  mutable branch_tgt : string option;  (** [None] = halt *)
  mutable branch_exit : int;  (** exit index; 0 for [halt] *)
  mutable branch_exc : bool;
  mutable outputs_left : int;  (** writes + stores + branch not yet produced *)
  mutable unres : int;  (** unresolved store slots *)
  mutable nstored : int;  (** slots resolved as [Stored] *)
  mutable deferred : int list;  (** loads waiting on LSID order *)
}

val for_block : Block_image.t -> t
(** A frame sized exactly for one image. *)

val for_program : Block_image.program -> t
(** A frame sized for the largest block of a program, to be recycled
    with {!prepare}. *)

val prepare : t -> Block_image.t -> stats:Stats.t -> unit
(** Point the frame at an image, clear its live prefix, and count the
    block's execution and fetched instructions in [stats]. *)

val cleared : t -> bool
(** Is the live prefix indistinguishable from a fresh frame? (The
    arena-debug check.) *)

val complete : t -> bool
(** Every declared output has been produced (Section 4.3). *)

val ready : t -> int -> bool
(** Can instruction [id] fire: not yet fired, its operands present (a
    [sand] needs only a false left operand) and, if predicated, its
    matching predicate arrived? *)

val absorbed : int
val store_nulled : int

val deliver : t -> int -> Edge_isa.Target.slot -> Edge_isa.Token.t -> int
(** [deliver t id slot tok] delivers a token to an instruction slot.
    Returns [id] when the instruction became ready, {!store_nulled}
    when a null operand resolved its store, and {!absorbed} otherwise
    (including non-matching predicates). *)

val deliver_write : t -> int -> Edge_isa.Token.t -> unit
(** Deliver a token to a register-write slot. *)

val fire : t -> int -> unit
(** Mark [id] fired and count it in [stats] by its statistic class. *)

val result : t -> int -> Edge_isa.Token.t
(** The output token of a fired ALU, test, move, constant or [sand]
    instruction. *)

val address : t -> int -> int64
(** A fired load's or store's effective address. *)

val lower_resolved : t -> int -> bool
(** Are all of this frame's stores below LSID [lsid] resolved? *)

val stores_below : t -> int -> stored list
(** This frame's [Stored] resolutions below LSID [lsid], in LSID order. *)

val overlay :
  width:Edge_isa.Opcode.width ->
  addr:int64 ->
  Edge_isa.Token.t ->
  stored list ->
  Edge_isa.Token.t
(** [overlay ~width ~addr mem_tok stores] is what a load reads when
    memory holds [mem_tok] and [stores] (oldest first) are the stores
    it must see: their bytes replace memory's byte by byte, sub-word
    results are sign-extended, and an exceptional store overlapping
    any loaded byte taints the result. *)

val load : t -> int -> mem:Edge_isa.Mem.t -> stored list -> Edge_isa.Token.t
(** The output token of fired load [id], forwarding from [stores]
    (oldest first); a null or exceptional base address short-circuits
    the access. *)

val store_result : t -> int -> store_res
(** How fired store [id] resolves: [Nulled] on a null operand. *)

val resolve_store : t -> int -> store_res -> unit
(** Resolve the store with the given LSID. *)

val resolve_branch : t -> int -> unit
(** Record fired branch or halt [id] as the block's exit. *)

val deadlock : t -> 'a
(** Raise the diagnostic for a block that cannot complete, naming its
    missing outputs. *)

val commit : t -> regs:int64 array -> mem:Edge_isa.Mem.t -> string option
(** Commit a block: stores in LSID order, then register writes by slot,
    then the branch. Null outputs change nothing; the first exceptional
    output stops the commit and is returned as the fault. Raises the
    {!deadlock} diagnostic if the block is incomplete. *)
