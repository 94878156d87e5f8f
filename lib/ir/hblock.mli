(** Hyperblocks: predicated three-address code.

    After if-conversion the compiler represents each TRIPS block as a list
    of guarded instructions plus guarded exits — the flat form of the
    paper's predicate flow graph (Section 5, Figure 4). A guard names the
    predicate temps that may fire the instruction and the polarity they
    must match; a guard with several predicates is the ISA's predicate-OR
    (Section 3.5): the instruction fires when any one of them arrives with
    matching polarity, and block construction guarantees at most one
    can. *)

type guard = { gpol : bool; gpreds : Temp.t list }

type hop =
  | Op of Tac.instr  (** ordinary computation ([Tac.Phi] never appears) *)
  | Sand of { dst : Temp.t; a : Temp.t; b : Temp.t }
      (** short-circuiting predicate AND (Section 7): fires as soon as
          [a] arrives false, else when both arrive; see
          {!Edge_isa.Opcode.Sand} *)
  | Null_write of Temp.t
      (** produce a null token for the register write of this temp
          (Section 4.2); only the write consumes it *)
  | Null_store of int
      (** produce a null store for the given in-block store index *)

type hinstr = { hop : hop; guard : guard option }

type hexit = {
  eguard : guard option;
  etarget : Label.t option;  (** [None] terminates the program *)
}

type t = {
  hname : Label.t;
  mutable body : hinstr list;
  mutable hexits : hexit list;  (** exactly one fires per execution *)
  mutable houts : (Temp.t * Temp.t) list;
      (** block outputs: [(reg_temp, producer_temp)]. The block writes the
          architectural register allocated to [reg_temp]; the write's
          producers are the body's definitions of [producer_temp] (plus
          any [Null_write producer_temp]). The two coincide unless
          if-conversion introduced per-exit output moves. *)
}

val guard_equal : guard option -> guard option -> bool
val guard_uses : guard option -> Temp.t list

val singleton : Temp.t -> bool -> guard
(** [singleton p pol] guards on predicate [p] with polarity [pol]. *)

val hop_def : hop -> Temp.t option
val hop_uses : hinstr -> Temp.t list
(** Data uses plus guard predicates. *)

val data_uses : hinstr -> Temp.t list
val defs : t -> Temp.Set.t

val store_count : t -> int
(** Number of distinct store indices (LSIDs) in the body. *)

val predicated_count : t -> int

val def_sites : t -> int list Temp.Map.t
(** For each temp, the body positions (0-based) that define it; multiple
    positions mean complementary guarded definitions (a dataflow join). *)

val pp_guard : Format.formatter -> guard option -> unit
val pp_hinstr : Format.formatter -> hinstr -> unit
val pp : Format.formatter -> t -> unit
