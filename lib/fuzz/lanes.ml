(* The exhaustive enumerators' lane layout: 32 assignments of a block's
   variables per OCaml int.

   Assignment [a] of [nvars] variables gives variable [v] the value
   [(a lsr v) land 1].  Chunk [c] holds assignments [32c] to
   [32c + 31], assignment [a] in lane [a land 31] of chunk [a lsr 5].
   Within a chunk a variable [v < 5] is a fixed lane pattern and a
   variable [v >= 5] is the same in every lane.  With fewer than 5
   variables there is one chunk whose lanes from [2^nvars] on are
   unused; [full_lanes] marks the lanes in use, and every mask stays
   inside it.  [Ineff_oracle] and [Validate] both evaluate on this
   layout. *)

let lane_bits = 5

let lane_pattern =
  [| 0xAAAA_AAAA; 0xCCCC_CCCC; 0xF0F0_F0F0; 0xFF00_FF00; 0xFFFF_0000 |]

let chunks nvars = max 1 ((1 lsl nvars) lsr lane_bits)

let full_lanes nvars =
  if nvars >= lane_bits then 0xFFFF_FFFF else (1 lsl (1 lsl nvars)) - 1

(* the lanes of chunk [c] on which variable [v] is 1 *)
let var_mask ~full c v =
  if v < lane_bits then lane_pattern.(v) land full
  else if (c lsr (v - lane_bits)) land 1 = 1 then full
  else 0

(* the lowest set lane of a non-zero mask *)
let lowest m =
  let rec go m k = if m land 1 = 1 then k else go (m lsr 1) (k + 1) in
  go m 0

(* the lowest assignment on which [lanes c] is set, chunk by chunk *)
let first_asg n_chunks lanes =
  let rec go c =
    if c >= n_chunks then None
    else
      let m = lanes c in
      if m <> 0 then Some ((c lsl lane_bits) + lowest m) else go (c + 1)
  in
  go 0
