(** Sharded in-memory result cache.

    dfpd's one in-memory result cache, read by the reader-thread fast
    path in front of the workers and {!Disk_cache}: a warm hit costs
    one stripe lock and one hashtable probe — no filesystem access, no
    global mutex, no marshalling. Keys are strings (the
    caller's digest convention, same as {!Disk_cache}); values are kept
    as ordinary OCaml values, so hits return the exact value stored.

    The table is striped: a key hashes to one of [stripes] independent
    (mutex, hashtable) pairs, so concurrent readers and writers of
    different keys never contend. With [max_entries] set, each stripe
    holds at most [max_entries / stripes] entries and evicts its
    least-recently-used entry on overflow (per-stripe clock, O(stripe)
    scan — stripes are small by construction).

    All counters are [Atomic] and safe to read from any domain. *)

type 'v t

val create : ?stripes:int -> ?max_entries:int -> unit -> 'v t
(** [stripes] (default 64, rounded up to a power of two) independent
    lock stripes; [max_entries] (default 4096, [0] = unbounded) total
    entry cap, split evenly across stripes. *)

val find : 'v t -> key:string -> 'v option
(** A hit refreshes the entry's LRU clock. *)

val store : 'v t -> key:string -> 'v -> unit
(** Insert or replace, evicting the stripe's LRU entry if the stripe
    is at capacity. *)

val hits : 'v t -> int
val misses : 'v t -> int
val stores : 'v t -> int
val evictions : 'v t -> int

val entry_count : 'v t -> int
(** Entries currently held, summed across stripes. *)

val publish : 'v t -> Edge_obs.Metrics.t -> unit
(** Snapshot the counters into a metrics registry as
    [cache.mem.hits] / [cache.mem.misses] / [cache.mem.stores] /
    [cache.mem.evictions] / [cache.mem.entries], plus a
    [cache.mem.stripe.entries] histogram (one sample per non-empty
    stripe). Additive: call on a fresh registry for a snapshot. *)
