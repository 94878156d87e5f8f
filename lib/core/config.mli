(** Compiler configuration: the paper's Section 6 experiment axes.

    [Bb] compiles one TRIPS block per basic block (no if-conversion;
    conditional control flow uses complementary predicated branches only,
    as on the real hardware). [Hyper] forms hyperblocks; the three
    optimization switches correspond to the paper's intra (predicate
    fanout reduction, Section 5.1), inter (path-sensitive predicate
    removal, Section 5.2) and instruction merging (Section 5.3). *)

type mode = Bb | Hyper

type t = {
  mode : mode;
  opt_fanout : bool;
  opt_path_sensitive : bool;
  opt_merge : bool;
  max_unroll : int;  (** cap on static loop unrolling (Section 3.4) *)
  use_mov4 : bool;  (** build fanout trees with 4-target multicast moves
                        (Section 7 future work; ablation) *)
  aggressive_regions : bool;
      (** unroll and grow regions to fill blocks completely; viable only
          with merging (the Section 5.3 case study) *)
  use_sand : bool;
      (** convert serial predicate-AND chains to short-circuiting [sand]
          folds (Section 7 near-term work) *)
  opt_ineff : bool;
      (** Psi-SSA ineffectuality elimination: delete instructions that
          provably contribute to no output, store, or branch, and drop
          guards proven to be ineffectual predicate deliveries.  Not in
          the paper; on in [both] and every config derived from it. *)
}

val bb : t

val hyper_baseline : t
(** Hyperblocks, no predicate optimizations. *)

val intra : t
val inter : t
val both : t

val merge : t
(** [both] plus disjoint instruction merging. *)

val sand : t
(** [both] plus short-circuit AND chain conversion (Section 7). *)

val mov4 : t
(** [both] with 4-target multicast fanout moves (Section 7). *)

val hand_optimized : t
(** [merge] with maximal unrolling and block filling — the automated
    equivalent of the paper's hand-optimized genalg (Section 5.3). *)

val all_paper_configs : (string * t) list
(** The five configurations of Figure 7, in presentation order. *)

val all_configs : (string * t) list
(** Every named configuration: [Merge], [Mov4], [Sand], then
    {!all_paper_configs}.  The names the fuzz oracle, dfpd jobs and the
    dfpd client accept. *)

val find : string -> (string * t, string) result
(** The configuration named [s] in any case, with its canonical name:
    one of {!all_configs}, or ["Hand"] for {!hand_optimized}.  The error
    lists every accepted name.  The command-line tools take config names
    through it. *)
