(** Path-sensitive predicate removal (Section 5.2) — the paper's *inter*
    configuration.

    Inter-block liveness already told if-conversion which exits each
    register is live across; this pass exploits the cases where a value is
    live on some paths only. A block output whose live exits all see the
    same version, produced by an exception-free upward dependence chain,
    is promoted to execute unconditionally: the per-exit output moves and
    null writes disappear, the chain's guards are removed, and the write
    resolves as early as the chain allows — the early branch/store
    resolution the paper credits for autcor00/conven00/iirflt01. *)

val run :
  ?m:Edge_obs.Metrics.t ->
  Edge_ir.Hblock.t list ->
  Edge_ir.Cfg.t ->
  Edge_ir.Liveness.t ->
  retq:Edge_ir.Temp.t ->
  unit
(** [m] (optional) receives the pass counter
    ["pass.path.outputs_promoted"]. *)
