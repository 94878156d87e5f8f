(** Set-associative cache timing model with LRU replacement.

    Purely a latency model: data always comes from {!Edge_isa.Mem};
    the cache tracks which lines would hit. Geometry defaults follow the
    paper's Section 6: 32 KB 2-way L1D (2-cycle), 64 KB 2-way L1I
    (1-cycle), backed by an L2 and main memory. Each set is built the
    first time an access touches it and keeps its ways in recency
    order, so a short run pays only for the sets it uses. *)

type t

val create :
  size_bytes:int -> ways:int -> line_bytes:int -> hit_latency:int -> t

val access : t -> addr:int64 -> write:bool -> bool
(** [true] on hit; allocates the line (write-allocate) on miss. *)

val hit_latency : t -> int
val flush : t -> unit
