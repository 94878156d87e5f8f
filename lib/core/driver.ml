module Cfg = Edge_ir.Cfg
module Hb = Edge_ir.Hblock
module Temp = Edge_ir.Temp
module Label = Edge_ir.Label
module Liveness = Edge_ir.Liveness

type compiled = {
  program : Edge_isa.Program.t;
  placements : (string * int array) list;
  static_fanout_moves : int;
  static_instrs : int;
  static_blocks : int;
  explicit_predicates : int;
  pass_counters : (string * int) list;
      (* per-pass optimization counters ("pass.*", sorted by name) from
         the compile's last attempt, the one that fits; stored as a plain
         list so [compiled] stays safe to share between runs and ship
         across domains *)
}

let ( let* ) = Result.bind

(* Host time per compile stage.  With a [profile] registry, [timed]
   adds the stage's wall time, in µs, to its counter; without one it
   reads no clock.  Stages never nest, so their sum is the part of the
   compile they cover. *)
let timed profile stage f =
  match profile with
  | None -> f ()
  | Some m ->
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let us = Float.round ((Unix.gettimeofday () -. t0) *. 1e6) in
      Edge_obs.Metrics.incr m
        ("compile.stage." ^ stage ^ "_us")
        ~by:(Float.to_int us);
      r

(* Render a checker result as a pipeline error (the first diagnostic,
   with overflow counted).  [check = false] short-circuits: the checker
   costs compile time and only runs when requested. *)
let checked ?profile ~check result_thunk =
  if not check then Ok ()
  else
    timed profile "check" (fun () ->
        match Edge_check.Check.to_error (result_thunk ()) with
        | None -> Ok ()
        | Some e -> Error e)

let check_hblocks ?profile ~check ~pass hblocks =
  checked ?profile ~check (fun () ->
      Edge_check.Check.hblocks ~pass:(Pass_id.name pass) hblocks)

(* The psi round-trip invariant: Psi-SSA construction followed by
   destruction must be the structural identity on every hyperblock (so
   it trivially preserves checker verdicts).  Runs with [check] on,
   after the optimization pipeline.  Its versions come from a copy of
   the compile's temp supply, so the checker leaves the temps codegen
   draws untouched, and the verdict is a function of the block alone:
   a block that passed for the program passes again. *)
let check_psi_roundtrip ?profile ~check ~gen hblocks =
  if not check then Ok ()
  else
    timed profile "check" @@ fun () ->
    List.fold_left
      (fun acc (h : Hb.t) ->
        let* () = acc in
        Edge_check.Scope.verdict ~tag:"psi_roundtrip" h (fun () ->
            if Edge_ir.Psi_ssa.roundtrip ~gen:(Temp.Gen.copy gen) h then
              Ok false
            else
              Error
                (Edge_check.Diag.to_string
                   (Edge_check.Diag.make ~pass:"psi_ssa" ~block:h.Hb.hname
                      ~where:"body" Edge_check.Diag.Structure
                      "psi construct/destruct round-trip changed the block")))
        |> Result.map ignore)
      (Ok ()) hblocks

let rec convert_regions ?m cfg liveness ~retq regions =
  match regions with
  | [] -> Ok []
  | r :: rest ->
      let* h = If_convert.convert ?m cfg liveness r ~retq in
      let* hs = convert_regions ?m cfg liveness ~retq rest in
      Ok (h :: hs)

(* One step of a config's pipeline: if-conversion builds the
   hyperblocks from the regions, and every later pass rewrites them in
   place. *)
type step = Pass_id.t * (Hb.t list -> (Hb.t list, string) result)

(* The steps before register allocation: if-conversion, then in Hyper
   mode the config's predicate optimizations.  Lint mode ends after the
   first [Opt_hclean]: it reports what opt_ineff would do and leaves the
   code alone, so the diagnostics describe the blocks the caller sees. *)
let steps ?m ~lint (config : Config.t) cfg liveness ~retq regions : step list
    =
  let pass id run = (id, fun hblocks -> run hblocks; Ok hblocks) in
  let each id run = pass id (List.iter run) in
  let hyper flag steps =
    if flag && config.Config.mode = Config.Hyper then steps else []
  in
  let hclean = each Pass_id.Opt_hclean Opt_hclean.run in
  (Pass_id.If_convert, fun _ -> convert_regions ?m cfg liveness ~retq regions)
  :: hyper config.Config.opt_path_sensitive
       [ pass Pass_id.Opt_path (fun h -> Opt_path.run ?m h cfg liveness ~retq) ]
  @ hyper config.Config.opt_fanout
      [ each Pass_id.Opt_fanout (Opt_fanout.run ?m) ]
  @ hyper config.Config.opt_merge [ each Pass_id.Opt_merge (Opt_merge.run ?m) ]
  @ hyper config.Config.use_sand
      [
        each Pass_id.Opt_sand (fun h ->
            ignore (Opt_sand.run ?m h ~gen:cfg.Cfg.gen));
      ]
  @ hyper true [ hclean ]
  (* the second [Opt_hclean] mops up the test/pred chains the deleted
     sites and dropped guards were the last consumers of *)
  @ hyper (config.Config.opt_ineff && not lint)
      [ each Pass_id.Opt_ineff (Opt_ineff.run ?m); hclean ]

(* Run [steps] from the stage [path] holding [hblocks], each step
   followed by its checker hook.  [store] receives every later stage
   whose hook passed, under its path: the names of the steps that built
   it. *)
let run_steps ?profile ~check ~store (path, hblocks) steps =
  List.fold_left
    (fun acc ((id, run) : step) ->
      let* path, hblocks = acc in
      let* hblocks = timed profile (Pass_id.name id) (fun () -> run hblocks) in
      let* () = check_hblocks ?profile ~check ~pass:id hblocks in
      let path = path ^ "/" ^ Pass_id.name id in
      store path hblocks;
      Ok (path, hblocks))
    (Ok (path, hblocks))
    steps
  |> Result.map snd

(* A stage of a compile's first attempt, stored in the domain's
   [Edge_check.Scope]: the hyperblocks after a step, the next temp
   number and the pass counters so far.  Passes only reassign a block's
   [body], [hexits] and [houts], whose lists and records are immutable,
   so a shallow copy of each block is a snapshot. *)
type stage = {
  hblocks : Hb.t list;
  next_temp : Temp.t;
  counters : (string * int) list;
}

type Edge_check.Scope.entry += Stage of stage

let copy_hblocks = List.map (fun (h : Hb.t) -> { h with Hb.body = h.Hb.body })

(* What a first attempt's stages depend on beyond the program and its
   prefix, which fix the regions and the temp number the attempt starts
   from: [Opt_ineff]'s two test hooks, which change what its pass
   deletes or raises.  The config enters only through the prefix key
   and the step path, so a step may read no config field but the ones
   that choose the steps. *)
let attempt_key prefix_key =
  Printf.sprintf "stage %s force_dead=%s hooked=%b" prefix_key
    (String.concat "," (List.map string_of_int !Opt_ineff.force_dead))
    (Option.is_some !Opt_ineff.cross_validate)

(* The deepest stage of [steps] stored under [key], restored into the
   attempt (fresh block records, the temp supply, the counters in [m]),
   and the steps after it.  A stage is stored only after the one before
   it, so the stored stages are a prefix of the steps. *)
let resume ?key cfg m steps =
  let rec deepest found path = function
    | [] -> found
    | ((id, _) : step) :: rest -> (
        let path = path ^ "/" ^ Pass_id.name id in
        match Option.bind key (fun k -> Edge_check.Scope.find (k ^ path)) with
        | Some (Stage s) -> deepest ((path, Some s), rest) path rest
        | _ -> found)
  in
  match deepest (("", None), steps) "" steps with
  | (path, None), rest -> ((path, []), rest)
  | (path, Some s), rest ->
      Temp.Gen.next_above cfg.Cfg.gen (s.next_temp - 1);
      List.iter (fun (k, by) -> Edge_obs.Metrics.incr m k ~by) s.counters;
      ((path, copy_hblocks s.hblocks), rest)

let store_stage ?key cfg m path hblocks =
  Option.iter
    (fun key ->
      Edge_check.Scope.add (key ^ path)
        (Stage
           {
             hblocks = copy_hblocks hblocks;
             (* drawn from a copy: the attempt's supply does not move *)
             next_temp = Temp.Gen.fresh (Temp.Gen.copy cfg.Cfg.gen);
             counters = Edge_obs.Metrics.counters m;
           }))
    key

(* The config-independent prefix of a compile: SSA, the classic
   optimizations, unrolling, region selection and sizing, which leave
   the CFG, the return-value temp, the liveness and the regions that
   the compile's first attempt starts from.  Sizing draws temps from
   [cfg.gen], so the rest of the compile must continue from the
   generator as it leaves it. *)
type prefix = {
  cfg : Cfg.t;
  retq : Temp.t;
  liveness : Liveness.t;
  regions : If_convert.region list;
}

(* How an attempt ends once its passes and checks have passed: [Fits],
   with each hyperblock and the block emitted from it, and the pass
   counters; or [Too_big], with the first block that does not fit and
   codegen's message. *)
type outcome =
  | Fits of (Hb.t * Codegen.emitted) list * (string * int) list
  | Too_big of Label.t * string

(* One attempt at compiling [regions] over the prefix [p]: the config's
   steps from the deepest stage stored under [key] (storing the later
   ones there), each followed by its checker hook, then register
   allocation and codegen with theirs.  With [check] on, any diagnostic
   aborts compilation, naming the pass that broke the invariant.  Each
   attempt counts its passes in a fresh registry, so only the attempt
   that fits reports counts. *)
let attempt ?profile ~check ?lint ?key (config : Config.t) p regions =
  let { cfg; retq; liveness; _ } = p in
  let m = Edge_obs.Metrics.create () in
  let start, rest =
    resume ?key cfg m
      (steps ~m ~lint:(lint <> None) config cfg liveness ~retq regions)
  in
  let* hblocks =
    run_steps ?profile ~check ~store:(store_stage ?key cfg m) start rest
  in
  (match lint with
  | Some report when config.Config.mode = Config.Hyper ->
      timed profile (Pass_id.name Pass_id.Opt_ineff) (fun () ->
          List.iter (fun h -> List.iter report (Opt_ineff.findings h)) hblocks)
  | _ -> ());
  let* () = check_psi_roundtrip ?profile ~check ~gen:cfg.Cfg.gen hblocks in
  let* alloc =
    timed profile (Pass_id.name Pass_id.Regalloc) (fun () ->
        Regalloc.allocate hblocks ~entry:cfg.Cfg.entry ~params:cfg.Cfg.params
          ~retq)
  in
  let* () =
    checked ?profile ~check (fun () ->
        List.fold_left
          (fun acc (h : Hb.t) ->
            Edge_check.Check.merge acc
              (Edge_check.Check.alloc ~pass:(Pass_id.name Pass_id.Regalloc)
                 ~block:h.Hb.hname
                 ~reg_of:(Regalloc.reg_of alloc)
                 ~live_in:(Regalloc.live_in alloc h.Hb.hname)
                 ~live_out:(Regalloc.live_out alloc h.Hb.hname)))
          Edge_check.Check.empty hblocks)
  in
  let rec emit_all acc = function
    | [] -> Ok (List.rev acc)
    | (h : Hb.t) :: tl -> (
        match Codegen.emit h ~alloc ~gen:cfg.Cfg.gen ~use_mov4:config.Config.use_mov4 with
        | Ok e -> emit_all ((h, e) :: acc) tl
        | Error msg -> Error (h.Hb.hname, msg))
  in
  match
    timed profile (Pass_id.name Pass_id.Codegen) (fun () ->
        emit_all [] hblocks)
  with
  | Error (bad, msg) -> Ok (Too_big (bad, msg))
  | Ok emitted ->
      let* () =
        checked ?profile ~check (fun () ->
            List.fold_left
              (fun acc (_, e) ->
                Edge_check.Check.merge acc
                  (Edge_check.Check.block
                     ~pass:(Pass_id.name Pass_id.Codegen)
                     e.Codegen.block))
              Edge_check.Check.empty emitted)
      in
      let counters = Edge_obs.Metrics.counters m in
      (* every counter key must belong to a structured pass id, so the
         "pass.*" namespace and check[pass=...] attribution stay in
         lock-step *)
      assert (List.for_all (fun (k, _) -> Pass_id.of_counter k <> None) counters);
      Ok (Fits (emitted, counters))

(* The fitting loop: attempt the prefix's regions, and while a block
   does not fit, re-partition its region under half the region's raw
   size and attempt again, so a region that keeps failing is halved
   until its blocks fit or it is a singleton.  Only the first attempt
   is keyed: the program and the prefix key name its regions and temp
   number, not a later attempt's.  Ends with the regions of the last
   attempt and its outcome. *)
let fit ?profile ~check ?lint ?key config p =
  let rec go key regions =
    let* outcome = attempt ?profile ~check ?lint ?key config p regions in
    match outcome with
    | Fits _ -> Ok (regions, outcome)
    | Too_big (bad, _) ->
        let refined =
          List.concat_map
            (fun (r : If_convert.region) ->
              if Label.equal r.If_convert.head bad then
                let budget = Region.estimate p.cfg r.If_convert.blocks / 2 in
                Region.select_within p.cfg r ~budget:(max 3 budget)
              else [ r ])
            regions
        in
        (* only the failing region is re-partitioned, so as many regions
           as before means it stayed whole: a singleton, or a region the
           smaller budget leaves in one piece *)
        if List.compare_lengths refined regions = 0 then Ok (regions, outcome)
        else go None refined
  in
  go key p.regions

(* Size regions against the *naive* (baseline) predication: if the fully
   predicated form of a region fits the machine limits, every optimized
   form does too, so all configurations compile the same hyperblocks and
   the Figure 7 comparison is apples to apples.  Sizing is the fitting
   loop, unchecked (its attempts are throwaway) and unkeyed, and keeps
   the regions it reaches: a singleton region that still does not fit
   is a real error, which the config's own compile reports. *)
let size_regions (config : Config.t) p =
  (* aggressive mode sizes against the config's own (merged) code: filling
     blocks beyond what naive predication could hold is exactly what
     merging buys (Section 5.3) *)
  let sizing_config =
    if config.Config.aggressive_regions then config else Config.hyper_baseline
  in
  Result.map fst (fit ~check:false sizing_config p)

let run_prefix ?profile ~check cfg (config : Config.t) =
  timed profile "ssa" (fun () -> Edge_ir.Ssa.construct cfg);
  timed profile (Pass_id.name Pass_id.Opt_classic) (fun () ->
      Opt_classic.run cfg);
  timed profile "ssa" (fun () ->
      Edge_ir.Ssa.destruct cfg;
      Cfg.prune_unreachable cfg);
  let* () =
    checked ?profile ~check (fun () ->
        Edge_check.Check.cfg ~pass:(Pass_id.name Pass_id.Opt_classic) cfg)
  in
  if config.Config.mode = Config.Hyper then begin
    let target =
      if config.Config.aggressive_regions then
        config.Config.max_block_instrs * 9 / 10
      else config.Config.max_block_instrs / 2
    in
    timed profile "unroll" (fun () ->
        Unroll.run cfg ~max_unroll:config.Config.max_unroll
          ~target_instrs:target)
  end;
  let retq = Temp.Gen.fresh cfg.Cfg.gen in
  let liveness = Liveness.compute cfg in
  let* regions =
    match config.Config.mode with
    | Config.Bb ->
        Ok (timed profile "regions" (fun () -> Region.singletons cfg))
    | Config.Hyper ->
        let frac = if config.Config.aggressive_regions then 70 else 45 in
        let initial =
          timed profile "regions" (fun () ->
              Region.select cfg
                ~budget:(config.Config.max_block_instrs * frac / 100))
        in
        timed profile "sizing" (fun () ->
            size_regions config { cfg; retq; liveness; regions = initial })
  in
  Ok { cfg; retq; liveness; regions }

(* The prefixes of the domain's current program (see
   [Edge_check.Scope]), keyed on what the prefix reads of the config.
   Stored prefixes are never mutated: a hit finishes on a copy of the
   CFG, and a miss stores a copy of its own. *)
type Edge_check.Scope.entry += Prefix of (prefix, string) result

let copy_prefix = Result.map (fun p -> { p with cfg = Cfg.copy p.cfg })

let prefix_key (config : Config.t) =
  match config.Config.mode with
  | Config.Bb -> "prefix bb"
  | Config.Hyper ->
      Printf.sprintf "prefix hyper unroll=%d block=%d" config.Config.max_unroll
        config.Config.max_block_instrs

let shared_prefix ~check cfg (config : Config.t) =
  let key = prefix_key config in
  match Edge_check.Scope.find key with
  | Some (Prefix prefix) -> copy_prefix prefix
  | _ ->
      let prefix = run_prefix ~check cfg config in
      Edge_check.Scope.add key (Prefix (copy_prefix prefix));
      prefix

(* A compile's program: the digest of the CFG as handed in (emitted code
   depends on temp numbers, so the generator's counter joins it) plus
   [check], which decides whether the prefix runs the checker and, in a
   traced fuzz-oracle op, keeps the unchecked compiles that time the
   checker from filling the checked compiles' verdicts. *)
let program_name ~check cfg =
  Digest.string
    (Marshal.to_string
       (cfg.Cfg.blocks, cfg.Cfg.params, cfg.Cfg.entry, cfg.Cfg.gen)
       [ Marshal.No_sharing ])
  ^ if check then " checked" else " unchecked"

(* A compile up to program assembly: the prefix, then the fitting loop
   under the config from the prefix's regions.  Returns the prefix's
   CFG and what the last attempt emitted; a block that still does not
   fit fails the compile with codegen's message. *)
let fitted ?lint ?profile ~check cfg (config : Config.t) =
  (* a profiled compile times every stage and every check, so it reads
     and stores nothing; aggressive sizing runs the config's own passes,
     whose test hooks no prefix key covers; a lint compile's pipeline
     stops early *)
  let shared = profile = None && not config.Config.aggressive_regions in
  let* p =
    if profile <> None then begin
      Edge_check.Scope.leave ();
      run_prefix ?profile ~check cfg config
    end
    else begin
      Edge_check.Scope.enter (program_name ~check cfg);
      if shared then shared_prefix ~check cfg config
      else run_prefix ~check cfg config
    end
  in
  let key =
    if shared && lint = None then Some (attempt_key (prefix_key config))
    else None
  in
  let* _, outcome = fit ?profile ~check ?lint ?key config p in
  match outcome with
  | Fits (emitted, counters) -> Ok (p.cfg, emitted, counters)
  | Too_big (_, msg) -> Error msg

let hyperblocks cfg config =
  let* cfg, emitted, _ =
    fitted ~check:(Edge_check.Check.enabled ()) cfg config
  in
  Ok (cfg, List.map fst emitted)

let compile_cfg ?check ?lint ?profile cfg (config : Config.t) =
  let check =
    match check with Some c -> c | None -> Edge_check.Check.enabled ()
  in
  let* cfg, emitted, pass_counters =
    fitted ?lint ?profile ~check cfg config
  in
  let blocks = List.map (fun (_, e) -> e.Codegen.block) emitted in
  let* program = Edge_isa.Program.make ~entry:cfg.Cfg.entry blocks in
  let placements =
    timed profile (Pass_id.name Pass_id.Schedule) (fun () ->
        List.map
          (fun (b : Edge_isa.Block.t) ->
            (b.Edge_isa.Block.name, Schedule.place b))
          blocks)
  in
  let* () =
    checked ?profile ~check (fun () ->
        List.fold_left2
          (fun acc (b : Edge_isa.Block.t) (_, p) ->
            Edge_check.Check.merge acc
              (Edge_check.Check.placement ~pass:(Pass_id.name Pass_id.Schedule)
                 b p))
          Edge_check.Check.empty blocks placements)
  in
  Ok
    {
      program;
      placements;
      static_fanout_moves =
        List.fold_left (fun a (_, e) -> a + e.Codegen.fanout_moves) 0 emitted;
      static_instrs =
        List.fold_left
          (fun a (b : Edge_isa.Block.t) ->
            a + Array.length b.Edge_isa.Block.instrs)
          0 blocks;
      static_blocks = List.length blocks;
      explicit_predicates =
        List.fold_left
          (fun a (_, e) -> a + e.Codegen.explicit_predicates)
          0 emitted;
      pass_counters;
    }
