(** First-class machine descriptions.

    Everything the compiler's scheduler and both cycle-level backends
    need to know about the microarchitecture lives here: which backend
    interprets the description, the execution-tile geometry, the
    operand-network hop model, reservation-station organization, issue
    width, predictor sizing, and the timing/cache parameters that were
    historically the whole of [Machine.t]. The compiler ([Dfp.Schedule])
    and the simulators ([Edge_sim]) share this single definition — the
    module lives in [Edge_isa] because the ISA layer is the one
    dependency both sides already have.

    The [trips_grid] preset reproduces the Section 6 tsim-proc substitute
    exactly: a 4×4 grid of tiles with 8 reservation-station slots each
    (128 instructions), register tiles along the top edge, data tiles
    along the left edge, one cycle per Manhattan hop, up to 8 blocks in
    flight. The [inorder_edge] preset models Gray & Smith's
    area-efficient EDGE soft core: a single centralized tile holding the
    whole block, no operand network, one block in flight, sequential
    single-issue execution from a small instruction window. *)

type backend =
  | Trips_grid  (** the tiled out-of-order dataflow core ([Cycle_sim]) *)
  | Inorder_edge  (** the scalar in-order core ([Inorder_sim]) *)

type hop_model =
  | Manhattan of int
      (** 2-D mesh routing at [k] cycles per hop; register file along
          the top edge, memory interface along the left edge *)
  | Uniform of int
      (** fixed [k]-cycle cost between distinct tiles and to the
          register/memory interfaces; [Uniform 0] models fully
          centralized structures *)

type t = {
  backend : backend;
  rows : int;  (** execution-tile grid height *)
  cols : int;  (** execution-tile grid width *)
  slots_per_tile : int;  (** reservation-station slots per tile *)
  hop_model : hop_model;
  issue_per_tile : int;
      (** instructions issued per tile per cycle (the in-order backend
          reads this as its total issue width) *)
  window_size : int;
      (** in-order backends: in-flight instruction window *)
  predictor_history_bits : int;
  predictor_table_bits : int;
  fetch_cycles : int;
  predict_cycles : int;
  max_inflight : int;  (** frames: 1 non-speculative + N-1 speculative *)
  l1d_size : int;
  l1d_ways : int;
  l1d_latency : int;
  l1i_size : int;
  l1i_ways : int;
  l1i_latency : int;
  l2_size : int;
  l2_ways : int;
  l2_latency : int;
  mem_latency : int;
  line_bytes : int;
  early_termination : bool;  (** Section 4.3; off = drain before commit *)
  aggressive_loads : bool;
      (** loads may issue before older in-block stores resolve, with a
          dependence predictor and violation flushes; off = loads always
          wait (in-order memory) *)
  commit_stores_per_cycle : int;
  max_cycles : int;  (** watchdog *)
}

val trips_grid : t
val inorder_edge : t

val default : t
(** [trips_grid] — every historical call site keeps its meaning. *)

val presets : (string * t) list
(** [[("trips_grid", trips_grid); ("inorder_edge", inorder_edge)]] *)

val name : t -> string
(** The preset name when [t] equals a preset, else ["custom"]. *)

(* -- geometry ------------------------------------------------------ *)

val num_tiles : t -> int
val tile_row : t -> int -> int
val tile_col : t -> int -> int

val hops : t -> int -> int -> int
(** Operand-network cost between two execution tiles. *)

val reg_access_hops : t -> int -> int
(** Cost between a tile and the register file. *)

val mem_access_hops : t -> int -> int
(** Cost between a tile and the memory interface. *)

val same_geometry : t -> t -> bool
(** Do two machines agree on everything a placement depends on (grid
    shape, slot capacity, hop model)? Placements computed for one are
    valid — and identical — for the other. *)

val validate : t -> (unit, string) result
(** Structural sanity: positive geometry, enough slots for a maximal
    128-instruction block, positive issue/window/inflight, non-negative
    latencies, cache shapes the simulators accept. *)

(* -- serialization ------------------------------------------------- *)

val to_compact : t -> string
(** Canonical single-line [key=value;...] encoding of every field.
    Deterministic: structurally equal machines encode identically, so
    the string also serves as a cache-key component. *)

val of_compact : string -> (t, string) result
(** Parses [to_compact] output, a bare preset name ("trips_grid",
    "inorder_edge", "default"), or a preset name followed by overrides
    ("inorder_edge;window=8"); overrides without a leading preset apply
    to [default]. Unknown keys, malformed values, and descriptions
    rejected by {!validate} are errors.
    [of_compact (to_compact m) = Ok m] for every valid [m]. *)
