(** Architectural memory: a flat little-endian byte store.

    Accesses outside the mapped range do not trap; they return/accept
    tokens with the exception bit set, which the microarchitecture
    propagates and raises only if the value reaches a committed block
    output on a correctly predicated path (Section 4.4). *)

type t

val create : size:int -> t
val size : t -> int
val equal : t -> t -> bool
(** Byte-image equality; the store counter is not compared. *)

val store_count : t -> int
(** Number of architectural stores committed through {!store} since
    creation. Setup helpers ([store_int], [store_float]) do not
    count: the counter measures dynamic stores the program performed,
    which every execution path (interpreter, functional, cycle) must
    agree on. *)

val load : t -> width:Opcode.width -> addr:int64 -> Token.t
(** Sub-word loads sign-extend. Out-of-range or misaligned addresses yield
    a token with the exception bit set. *)

val store : t -> width:Opcode.width -> addr:int64 -> int64 -> (unit, unit) result
(** [Error ()] for out-of-range or misaligned addresses (the store is
    dropped; the caller tags the block output as excepting). *)

val load_int : t -> int -> int64
(** 8-byte load for test harnesses; raises on out-of-range. *)

val store_int : t -> int -> int64 -> unit
val store_float : t -> int -> float -> unit
val width_bytes : Opcode.width -> int
