(** The memory system both timing backends hold: L1 D-/I-caches over a
    shared L2, the next-block predictor, their latencies and [Stats]
    counters, and the observation context (trace sink, metrics) with
    its cached guards. {!Cycle_sim} and {!Inorder_sim} differ in when
    they access it, not in what an access costs. *)

type t = {
  machine : Machine.t;
  stats : Stats.t;  (** the run's statistics: cache counters land here *)
  l1d : Cache.t;
  l1i : Cache.t;
  l2 : Cache.t;
  predictor : Predictor.t;
  obs : Edge_obs.Obs.t;
  otrace : bool;  (** a trace sink is attached *)
  ofull : bool;  (** instruction/token/cache-level events wanted *)
  oactive : bool;  (** a sink or metrics registry is attached *)
  ometrics : Edge_obs.Metrics.t option;
}

val create : Machine.t -> stats:Stats.t -> obs:Edge_obs.Obs.t -> t

val emit : t -> Edge_obs.Event.t -> unit
val mincr : ?by:int -> t -> string -> unit
val mobserve : t -> string -> int -> unit

val dcache_latency : t -> cycle:int -> addr:int64 -> write:bool -> int
(** One data access at [cycle]: L1D, then L2, then memory; returns its
    latency and counts it. *)

val icache_penalty : t -> cycle:int -> Block_image.t -> int
(** Fetch a block's code lines through the L1I at [cycle]; returns the
    extra cycles its misses cost. *)
