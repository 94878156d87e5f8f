(** The cycle simulator's event wheel: a ring of per-cycle buckets of
    int-packed events.

    An event is two ints, a packed payload and its generation, so
    scheduling and draining allocate nothing once the buckets have
    grown to their working size. Each bucket is an int vector in
    insertion order and holds the events of exactly one cycle: every
    pending event lies within one ring length of the lowest cycle not
    yet drained, and the ring doubles when an event lands past that
    horizon. Events scheduled for the same cycle drain in insertion
    order (FIFO). *)

type t

val create : unit -> t

val add : t -> cycle:int -> int -> int -> unit
(** [add t ~cycle ev gen] schedules the event [ev] with generation
    [gen] for [cycle], which must lie after the last drained cycle.
    Amortized O(1). *)

val drain : t -> cycle:int -> (int -> int -> unit) -> unit
(** [drain t ~cycle f] applies [f ev gen] to every event scheduled for
    exactly [cycle], in insertion order, removing them first: events
    [f] schedules land in later cycles and are not visited. No event
    may be pending before [cycle]; the simulator visits cycles in
    increasing order and never past {!next_due}. *)

val next_due : t -> int
(** Earliest cycle holding a pending event, or [max_int] when empty.
    O(distance to the next event). *)

val is_empty : t -> bool
