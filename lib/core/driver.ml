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
         the final, successful generate attempt; stored as a plain list
         so [compiled] stays safe to memoize and ship across domains *)
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
   after the optimization pipeline. *)
let check_psi_roundtrip ?profile ~check ~gen hblocks =
  if not check then Ok ()
  else
    timed profile "check" @@ fun () ->
    List.fold_left
      (fun acc (h : Hb.t) ->
        let* () = acc in
        if Edge_ir.Psi_ssa.roundtrip ~gen h then Ok ()
        else
          Error
            (Edge_check.Diag.to_string
               (Edge_check.Diag.make ~pass:"psi_ssa" ~block:h.Hb.hname
                  ~where:"body" Edge_check.Diag.Structure
                  "psi construct/destruct round-trip changed the block")))
      (Ok ()) hblocks

let rec convert_regions ?m cfg liveness ~retq regions =
  match regions with
  | [] -> Ok []
  | r :: rest ->
      let* h = If_convert.convert ?m cfg liveness r ~retq in
      let* hs = convert_regions ?m cfg liveness ~retq rest in
      Ok (h :: hs)

(* Generate code for all hyperblocks; when one exceeds machine limits,
   split its region into basic blocks and redo the whole pipeline with
   the refined region list.  With [check] on, the static verifier runs
   after every optimization pass and any diagnostic aborts compilation,
   naming the pass that broke the invariant. *)
let apply_opts ?m ?profile ?(check = false) ?lint (config : Config.t) cfg
    liveness ~retq hblocks =
  (* run one pass, then its checker hook *)
  let pass id run =
    timed profile (Pass_id.name id) run;
    check_hblocks ?profile ~check ~pass:id hblocks
  in
  let each run () = List.iter run hblocks in
  if config.Config.mode <> Config.Hyper then Ok hblocks
  else
    let* () =
      if config.Config.opt_path_sensitive then
        pass Pass_id.Opt_path (fun () ->
            Opt_path.run ?m hblocks cfg liveness ~retq)
      else Ok ()
    in
    let* () =
      if config.Config.opt_fanout then
        pass Pass_id.Opt_fanout (each (Opt_fanout.run ?m))
      else Ok ()
    in
    let* () =
      if config.Config.opt_merge then
        pass Pass_id.Opt_merge (each (Opt_merge.run ?m))
      else Ok ()
    in
    let* () =
      if config.Config.use_sand then
        pass Pass_id.Opt_sand
          (each (fun h -> ignore (Opt_sand.run ?m h ~gen:cfg.Cfg.gen)))
      else Ok ()
    in
    let* () = pass Pass_id.Opt_hclean (each Opt_hclean.run) in
    (* lint mode reports what opt_ineff would do and leaves the code
       alone, so the diagnostics describe the blocks the caller sees *)
    match lint with
    | Some report ->
        timed profile (Pass_id.name Pass_id.Opt_ineff)
          (each (fun h -> List.iter report (Opt_ineff.findings h)));
        Ok hblocks
    | None ->
        let* () =
          if config.Config.opt_ineff then
            pass Pass_id.Opt_ineff (each (Opt_ineff.run ?m))
          else Ok ()
        in
        let* () =
          (* mop up the test/pred chains the deleted sites and dropped
             guards were the last consumers of *)
          if config.Config.opt_ineff then
            pass Pass_id.Opt_hclean (each Opt_hclean.run)
          else Ok ()
        in
        Ok hblocks

(* Each attempt gets a fresh registry: a retry after an emit failure
   redoes the whole pipeline, and only the successful attempt's counts
   may survive. *)
let rec generate ?profile ~check ?lint cfg (config : Config.t) liveness ~retq
    ~params regions =
  let m = Edge_obs.Metrics.create () in
  let* hblocks =
    timed profile (Pass_id.name Pass_id.If_convert) (fun () ->
        convert_regions ~m cfg liveness ~retq regions)
  in
  let* () = check_hblocks ?profile ~check ~pass:Pass_id.If_convert hblocks in
  let* hblocks =
    apply_opts ~m ?profile ~check ?lint config cfg liveness ~retq hblocks
  in
  let* () = check_psi_roundtrip ?profile ~check ~gen:cfg.Cfg.gen hblocks in
  let* alloc =
    timed profile (Pass_id.name Pass_id.Regalloc) (fun () ->
        Regalloc.allocate hblocks ~entry:cfg.Cfg.entry ~params ~retq)
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
      Ok (emitted, counters)
  | Error (bad, msg) -> (
      (* split the offending region into singletons and retry *)
      let offending =
        List.find_opt (fun r -> Label.equal r.If_convert.head bad) regions
      in
      match offending with
      | Some r when Label.Set.cardinal r.If_convert.blocks > 1 ->
          let refined =
            List.concat_map
              (fun r' ->
                if Label.equal r'.If_convert.head bad then Region.split r' cfg
                else [ r' ])
              regions
          in
          generate ?profile ~check ?lint cfg config liveness ~retq ~params
            refined
      | _ -> Error msg)

(* Size regions against the *naive* (baseline) predication: if the fully
   predicated form of a region fits the machine limits, every optimized
   form does too, so all configurations compile the same hyperblocks and
   the Figure 7 comparison is apples to apples. *)
let rec fit_regions cfg (config : Config.t) liveness ~retq ~params regions =
  (* aggressive mode sizes against the config's own (merged) code: filling
     blocks beyond what naive predication could hold is exactly what
     merging buys (Section 5.3) *)
  let sizing_config =
    if config.Config.aggressive_regions then config
    else { Config.hyper_baseline with Config.mode = Config.Hyper }
  in
  let* hblocks = convert_regions cfg liveness ~retq regions in
  (* sizing compiles are throwaway; never check them *)
  let* hblocks = apply_opts ~check:false sizing_config cfg liveness ~retq hblocks in
  let* alloc = Regalloc.allocate hblocks ~entry:cfg.Cfg.entry ~params ~retq in
  let rec first_failure = function
    | [] -> None
    | (h : Hb.t) :: tl -> (
        match
          Codegen.emit h ~alloc ~gen:cfg.Cfg.gen
            ~use_mov4:sizing_config.Config.use_mov4
        with
        | Ok _ -> first_failure tl
        | Error _ -> Some h.Hb.hname)
    in
  match first_failure hblocks with
  | None -> Ok regions
  | Some bad ->
      let any_split = ref false in
      let refined =
        List.concat_map
          (fun r ->
            if
              Label.equal r.If_convert.head bad
              && Label.Set.cardinal r.If_convert.blocks > 1
            then begin
              any_split := true;
              (* re-partition under half the region's raw size; repeated
                 failures keep halving until blocks fit (or become
                 singletons) *)
              let budget =
                max 3 (Region.estimate cfg r.If_convert.blocks / 2)
              in
              Region.select_within cfg r ~budget
            end
            else [ r ])
          regions
      in
      if !any_split then fit_regions cfg config liveness ~retq ~params refined
      else
        (* a singleton region that still does not fit is a real error;
           let the config's own pipeline report it *)
        Ok regions

(* The config-independent prefix of a compile: SSA, the classic
   optimizations, unrolling, region selection and sizing, which leave
   the CFG, the return-value temp, the liveness and the regions that
   [generate] starts from.  Sizing draws temps from [cfg.gen], so the
   rest of the compile must continue from the generator as it leaves
   it. *)
type prefix = {
  cfg : Cfg.t;
  retq : Temp.t;
  liveness : Liveness.t;
  regions : If_convert.region list;
}

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
            fit_regions cfg config liveness ~retq ~params:cfg.Cfg.params
              initial)
  in
  Ok { cfg; retq; liveness; regions }

(* The prefixes of the last program each domain compiled, by key (see
   driver.mli).  The generator's counter joins the digest because
   emitted code depends on temp numbers; [check] joins the key because
   the prefix runs the checker after the classic optimizations.  Stored
   prefixes are never mutated: a hit finishes on a copy of the CFG, and
   a miss stores a copy of its own. *)
type last_program = {
  digest : Digest.t;
  prefixes : ((bool * Config.mode * int * int) * (prefix, string) result) list;
}

let last_program =
  Domain.DLS.new_key (fun () -> { digest = ""; prefixes = [] })

let copy_prefix = Result.map (fun p -> { p with cfg = Cfg.copy p.cfg })

let shared_prefix ~check cfg (config : Config.t) =
  let digest =
    Digest.string
      (Marshal.to_string
         (cfg.Cfg.blocks, cfg.Cfg.params, cfg.Cfg.entry, cfg.Cfg.gen)
         [ Marshal.No_sharing ])
  in
  let key =
    match config.Config.mode with
    | Config.Bb -> (check, Config.Bb, 0, 0)
    | Config.Hyper ->
        ( check,
          Config.Hyper,
          config.Config.max_unroll,
          config.Config.max_block_instrs )
  in
  let last = Domain.DLS.get last_program in
  let known = if String.equal last.digest digest then last.prefixes else [] in
  match List.assoc_opt key known with
  | Some prefix -> copy_prefix prefix
  | None ->
      let prefix = run_prefix ~check cfg config in
      Domain.DLS.set last_program
        { digest; prefixes = (key, copy_prefix prefix) :: known };
      prefix

let compile_cfg ?check ?lint ?profile cfg (config : Config.t) =
  let check =
    match check with Some c -> c | None -> Edge_check.Check.enabled ()
  in
  (* a profiled compile times every stage; aggressive sizing runs the
     config's own passes, whose test hooks no key covers *)
  let* { cfg; retq; liveness; regions } =
    if profile <> None || config.Config.aggressive_regions then
      run_prefix ?profile ~check cfg config
    else shared_prefix ~check cfg config
  in
  let* emitted, pass_counters =
    generate ?profile ~check ?lint cfg config liveness ~retq
      ~params:cfg.Cfg.params regions
  in
  let blocks = List.map (fun (_, e) -> e.Codegen.block) emitted in
  let entry = cfg.Cfg.entry in
  let* program = Edge_isa.Program.make ~entry blocks in
  let* () =
    match Edge_isa.Program.validate program with
    | Ok () -> Ok ()
    | Error es -> Error (String.concat "; " es)
  in
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
