(** Persistent on-disk result cache.

    Complements {!Mem_cache} (which dies with the process):
    entries survive across runs, so repeated sweeps skip recompilation and
    re-simulation of unchanged (workload, config) pairs. Callers build
    keys from content digests (kernel source, config, simulator
    revision); the cache itself is a dumb, crash-safe key/value store.

    Entries are [Marshal]ed payloads prefixed with their digest,
    sharded across 256 fan-out directories by the first byte of the
    key digest (so no single directory grows unboundedly under a
    many-million-entry load). A truncated or corrupted file fails the
    digest check and reads as a miss (counted in [errors]), so a
    damaged cache degrades to recomputation, never a crash. Writes go
    through a unique temp file plus [Sys.rename], making concurrent
    writers (parallel sweep domains, the serve front door, or two
    processes sharing a cache dir) last-writer-wins safe.

    With [max_bytes] set, every store that pushes the cache over the
    cap triggers mtime-ordered ("LRU-ish": hits refresh mtimes)
    eviction down to the cap, never deleting the entry just written —
    so disk usage is bounded by [max_bytes] plus one entry. Eviction
    is a bare unlink and therefore safe against concurrent readers: a
    reader that won the [open] race keeps its bytes, one that lost
    gets a clean miss, never a torn read. *)

type t

val create : ?max_bytes:int -> ?tmp_max_age_s:float -> dir:string -> unit -> t
(** Opens (creating if needed, like [mkdir -p]) a cache rooted at
    [dir]. Raises [Sys_error] only if the directory cannot be created
    at all.

    [max_bytes] caps the total entry bytes on disk (default: no cap);
    see the eviction contract above. Opening also sweeps temp files
    abandoned by writers that died between write and rename: any
    [*.tmp.*] file older than [tmp_max_age_s] seconds (default 600) is
    removed, younger ones are left for their (possibly live) writer. *)

val dir : t -> string

val find : t -> key:string -> 'a option
(** Look up [key]; [None] on miss or on a corrupted entry. The result
    type must match what was stored — keys must therefore encode the
    payload's type/version (the caller-side digest convention). A hit
    refreshes the entry's mtime (best-effort) so hot entries survive
    eviction. *)

val store : t -> key:string -> 'a -> unit
(** Atomically persist a value for [key], replacing any previous
    entry, then evict down to [max_bytes] if the store overflowed the
    cap. The entry is on disk, visible to every handle on [dir], when
    [store] returns. I/O errors are swallowed (counted in [errors]): a
    read-only cache dir degrades to a no-op cache. *)

val remove : t -> key:string -> unit

val path_of_key : t -> key:string -> string
(** Where [key]'s entry lives on disk — [dir/<hh>/<digest>.bin] with
    [hh] the first two hex digits of the key digest (exposed for tests
    that corrupt an entry deliberately). *)

val hits : t -> int

val misses : t -> int

val errors : t -> int
(** Corrupted entries encountered and store/read failures survived. *)

val evictions : t -> int
(** Entries deleted by the size-cap eviction path. *)

val stores : t -> int

val tmp_swept : t -> int
(** Stale temp files removed when this handle opened the directory. *)

val max_bytes : t -> int option

val disk_usage : t -> int
(** Ground truth from a directory scan: bytes currently held in
    entries (exclusive of in-flight temp files). *)

val entry_count : t -> int
