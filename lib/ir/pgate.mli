(** The symbolic gating analysis over guarded hyperblock TAC: per-site
    fire regions and three-valued values as BDDs, shared between the
    polynomial invariant checker (lib/check) and the Psi-SSA analysis
    layer ({!Psi_ssa} and the ineffectuality optimization built on it).
    The analysis assumes the block passed the structural pre-checks
    (no phis, null-store indices in range); callers that cannot assume
    that must check first. *)

type horigin = HTemp of Temp.t | HImm of int64

val origin :
  int list Temp.Map.t -> Hblock.hinstr array -> Tac.operand -> horigin
(** Operand identity up to single-def mov chains, for compare-variable
    sharing. *)

type t = {
  m : Bdd.t;
  body : Hblock.hinstr array;
  sites : int list Temp.Map.t;  (** def sites per temp, in body order *)
  store_positions : int array;  (** body position of the k-th store *)
  e : Bdd.node array;  (** fire region per site *)
  svt : Bdd.node array;  (** site value true (given the site fired) *)
  svu : Bdd.node array;  (** site value underivable *)
  site_var : (int * bool) option array;
  livein_var : (Temp.t, int) Hashtbl.t;
  vars : (Temp.t * int option) array;
      (** per enumeration variable: the temp it stands for and its def
          site, [None] for a live-in *)
  nvars : int;  (** enumeration variable count *)
}

val name : t -> int -> string
(** An enumeration variable's display name, rendered on demand: [t3@5]
    for the def of [t3] at body position 5, [t3] for a live-in. *)

val analyze : ?budget:int -> Hblock.t -> (t, string) result
(** Run the fire/value fixpoint. [Error msg] means the analysis is
    inconclusive (BDD budget exceeded, non-converging fixpoint) — treat
    as "skip", never as a verdict. *)

val avail : t -> Temp.t -> Bdd.node
(** Region where the temp carries a token ([True] for live-ins). *)

val temp_val : t -> Temp.t -> Bdd.node * Bdd.node
(** (value-true, value-underivable) regions of a temp. *)

val op_val : t -> Tac.operand -> Bdd.node * Bdd.node
val op_avail : t -> Tac.operand -> Bdd.node
val is_false_op : t -> Tac.operand -> Bdd.node

val guard_matched : t -> Hblock.guard option -> Bdd.node
(** Region where the guard matches (a delivered predicate of the right
    polarity); [True] for unguarded. *)

val fire_unguarded : t -> int -> Bdd.node
(** The site's fire region recomputed without its explicit guard: data
    availability alone.  Equal to [e.(i)] exactly when the guard is an
    ineffectual delivery (the guard-drop legality test). *)

val witness : t -> Bdd.node -> string
(** One satisfying assignment rendered enumerator-style (" on path
    [...]"), or "" when unsatisfiable. *)
