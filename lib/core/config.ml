type mode = Bb | Hyper

type t = {
  mode : mode;
  opt_fanout : bool;
  opt_path_sensitive : bool;
  opt_merge : bool;
  max_unroll : int;
  use_mov4 : bool;
  max_block_instrs : int;
  aggressive_regions : bool;
  use_sand : bool;
  opt_ineff : bool;
}

let base =
  {
    mode = Hyper;
    opt_fanout = false;
    opt_path_sensitive = false;
    opt_merge = false;
    max_unroll = 8;
    use_mov4 = false;
    max_block_instrs = 128;
    aggressive_regions = false;
    use_sand = false;
    opt_ineff = false;
  }

let bb = { base with mode = Bb }
let hyper_baseline = base
let intra = { base with opt_fanout = true }
let inter = { base with opt_path_sensitive = true }
(* "Both" is where this reproduction goes beyond the paper: on top of
   intra + inter it runs the Psi-SSA ineffectuality pass (delete defs
   that provably feed no output, store, or branch; drop guards proven
   to be ineffectual deliveries), so every derived config inherits it. *)
let both =
  { base with opt_fanout = true; opt_path_sensitive = true; opt_ineff = true }
let merge = { both with opt_merge = true }

let sand = { both with use_sand = true }
let mov4 = { both with use_mov4 = true }

let hand_optimized =
  (* the Section 5.3 case study: merging plus maximal unrolling, standing
     in for the paper's hand-applied transformations *)
  { merge with max_unroll = 16; aggressive_regions = true }

let all_paper_configs =
  [
    ("BB", bb);
    ("Hyper", hyper_baseline);
    ("Intra", intra);
    ("Inter", inter);
    ("Both", both);
  ]

(* every configuration the compiler supports, paper and auxiliary *)
let all_configs =
  ("Merge", merge) :: ("Mov4", mov4) :: ("Sand", sand) :: all_paper_configs

let find s =
  let named = all_configs @ [ ("Hand", hand_optimized) ] in
  let want = String.lowercase_ascii s in
  match
    List.find_opt (fun (n, _) -> String.lowercase_ascii n = want) named
  with
  | Some nc -> Ok nc
  | None ->
      Error
        (Printf.sprintf "unknown config %s (%s)" s
           (String.concat "|" (List.map fst named)))
