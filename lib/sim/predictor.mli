(** Next-block prediction.

    TRIPS predicts the next block (one prediction per block rather than
    per branch — a key benefit the paper attributes to predication:
    fewer, more predictable branches). We model an exit predictor: a
    two-level scheme hashing the block address with a global history of
    recent exit indices to predict which exit the block will take, backed
    by a BTB mapping (block, exit) to the target name. Prediction costs
    the 3-cycle latency of Section 6 (charged by the block engine). *)

type t

val create : ?history_bits:int -> ?table_bits:int -> unit -> t

val predict : t -> block:string -> string option
(** Predicted next-block name; [None] when nothing is known yet (the
    engine then stalls fetch until the branch resolves). *)

val update : t -> block:string -> exit_idx:int -> target:string -> unit
(** Train with the architecturally taken exit. Also advances the global
    history. *)

val block_hash : string -> int
(** The hash [predict]/[update] derive from the block name; precompute
    it once per block and use the [_hashed] variants on hot paths. *)

val predict_hashed : t -> block_hash:int -> string option
val update_hashed : t -> block_hash:int -> exit_idx:int -> target:string -> unit
(** Exactly [predict]/[update] with the name hash supplied by the
    caller (see {!block_hash}). *)
