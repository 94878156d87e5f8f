(** Domain-safe memoization with single-flight semantics: concurrent
    [get]s of the same key run the computation once and share the
    result (or the exception).

    The table is striped by key hash — each stripe owns its mutex,
    condition and hashtable — so hits on different keys proceed in
    parallel and a completion only wakes the waiters of its own
    stripe. Each stripe holds at most a fixed number of entries
    (16 stripes of 32): a full stripe drops its settled entries,
    keeping in-flight computations, so a dropped key is simply
    computed again on its next [get]. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

val get : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [get t k f] returns the cached value for [k], computing it with [f]
    on first use. If [f] raised, the exception is cached and re-raised
    for every subsequent caller (until its stripe drops it). *)
