(* fig7-sweep: the paper's Figure 7 matrix, 28 EEMBC kernels under the
   5 paper configurations, one op per (benchmark, config) pair.

   Each op compiles a fresh lowering, runs the functional executor,
   then the grid and in-order timing backends, and checks every run's
   return value and final memory against the reference answers built
   in set-up, and both cycle counts against BENCH_fig7.json (read,
   never written).  The ops call the public functions directly rather
   than Experiment.run_one or Figure7.run: those memoize compiles and
   reference runs process-wide, so a second pass would time memo hits.

   The matrix is fixed, so the seed is not used: every run does the same
   140 ops in the same order.  The order matters to the exact counts,
   because the simulators cache block images and JIT code by program
   content, and some configurations compile a kernel to the same
   program. *)

module W = Edge_workloads.Workload
module Conv = Edge_isa.Conventions
module Mem = Edge_isa.Mem
module Stats = Edge_sim.Stats
module Json = Edge_serve.Json
module Machine = Edge_sim.Machine

let ( let* ) = Result.bind

type cell = {
  w : W.t;
  cname : string;
  config : Dfp.Config.t;
  grid_expect : int;
  inorder_expect : int;
  reference : int64;
  ref_mem : Mem.t;
}

type out = {
  grid : Stats.t;
  inorder : Stats.t;
  instrs : int;  (** static *)
  blocks : int;
  fanout_moves : int;
}

let name c = c.w.W.name ^ "/" ^ c.cname

(* (bench, config) -> cycles, from a Figure 7 "benches" array *)
let cycle_table benches =
  List.concat_map
    (fun b ->
      match (Json.str_member "bench" b, Json.member "cycles" b) with
      | Some bench, Some (Json.Obj cs) ->
          List.filter_map
            (fun (c, v) ->
              Option.map (fun n -> ((bench, c), int_of_float n)) (Json.num v))
            cs
      | _ -> [])
    benches

let load_expected path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let* j = Json.parse text in
  let arr = function Some (Json.Arr l) -> Ok l | _ -> Error "missing benches" in
  let* grid = arr (Json.member "benches" j) in
  let* inorder =
    arr
      (Option.bind (Json.member "backends" j) (fun b ->
           Option.bind (Json.member "inorder_edge" b) (Json.member "benches")))
  in
  Ok (cycle_table grid, cycle_table inorder)

let setup ~short =
  let grid, inorder =
    match load_expected "BENCH_fig7.json" with
    | Ok t -> t
    | Error e -> failwith ("BENCH_fig7.json: " ^ e)
  in
  let expect tbl w c =
    match List.assoc_opt (w, c) tbl with
    | Some n -> n
    | None -> failwith (Printf.sprintf "BENCH_fig7.json has no %s/%s" w c)
  in
  let cells =
    List.concat_map
      (fun (w : W.t) ->
        let reference, ref_mem =
          match W.reference_run w with
          | Ok (r, m) -> (Option.value ~default:0L r, m)
          | Error e -> failwith ("reference run: " ^ e)
        in
        List.map
          (fun (cname, config) ->
            {
              w;
              cname;
              config;
              grid_expect = expect grid w.W.name cname;
              inorder_expect = expect inorder w.W.name cname;
              reference;
              ref_mem;
            })
          Dfp.Config.all_paper_configs)
      Edge_workloads.Registry.eembc
  in
  let a = Array.of_list cells in
  if short then Array.sub a 0 6 else a

let span = Spans.span

let verify (c : cell) what regs mem =
  span "harness.verify" (fun () ->
      if Int64.equal regs.(Conv.result_reg) c.reference && Mem.equal mem c.ref_mem
      then Ok ()
      else
        Error
          (Printf.sprintf "%s: ret %Ld vs %Ld%s" what regs.(Conv.result_reg)
             c.reference
             (if Mem.equal mem c.ref_mem then "" else ", memory differs")))

let timing (c : cell) (compiled : Dfp.Driver.compiled) ~machine ~layer ~expect =
  let regs, mem = span "harness.verify" (fun () -> Edge_harness.Experiment.setup_run c.w) in
  let placement n =
    Option.value ~default:[||] (List.assoc_opt n compiled.Dfp.Driver.placements)
  in
  let* stats =
    span layer (fun () ->
        Edge_sim.Backend.run ~machine ~placement compiled.Dfp.Driver.program ~regs ~mem)
  in
  let* () = verify c layer regs mem in
  if stats.Stats.cycles = expect then Ok stats
  else
    Error
      (Printf.sprintf "%s: %d cycles, BENCH_fig7.json has %d" layer
         stats.Stats.cycles expect)

let exec (c : cell) =
  let* cfg =
    span "lang.front" (fun () ->
        let* ast = W.parse c.w in
        Edge_lang.Lower.lower ast)
  in
  let* compiled = span "core.compile" (fun () -> Dfp.Driver.compile_cfg cfg c.config) in
  let regs, mem = span "harness.verify" (fun () -> Edge_harness.Experiment.setup_run c.w) in
  let* _ = span "sim.fsim" (fun () -> Edge_sim.Functional.run compiled.Dfp.Driver.program ~regs ~mem) in
  let* () = verify c "sim.fsim" regs mem in
  let* grid =
    timing c compiled ~machine:Machine.trips_grid ~layer:"sim.grid" ~expect:c.grid_expect
  in
  let* inorder =
    timing c compiled ~machine:Machine.inorder_edge ~layer:"sim.inorder"
      ~expect:c.inorder_expect
  in
  Ok
    {
      grid;
      inorder;
      instrs = compiled.Dfp.Driver.static_instrs;
      blocks = compiled.Dfp.Driver.static_blocks;
      fanout_moves = compiled.Dfp.Driver.static_fanout_moves;
    }

let run ~seed:_ ~seconds:_ ~trace ~short : Report.run =
  (* bench/main.exe compiles without the fuzz enumerator hook; linking
     Edge_fuzz installs it for the whole process, so take it out *)
  Dfp.Opt_ineff.cross_validate := None;
  let setup_s, cells, _ =
    Report.repeat_setup 5 (fun () -> (setup ~short, fun () -> ()))
  in
  (* one pass, whatever --seconds says: a second pass would find the
     simulators' block caches warm *)
  let n = Array.length cells in
  Report.log "fig7-sweep: %d ops" n;
  let o = Ops.run ~trace (fun i -> exec cells.(i)) n in
  let failed = Ops.failures (fun i -> name cells.(i)) o in
  let oks = List.filter_map Result.to_option (Array.to_list o.Ops.results) in
  let sum f = float_of_int (List.fold_left (fun a x -> a + f x) 0 oks) in
  let facts =
    [
      ("setup_s", setup_s);
      ("ops_per_s", float_of_int (List.length oks) /. o.Ops.window_s);
      ("peak_rss_mb", Report.peak_rss_mb None);
      ("sim.grid_cycles", sum (fun x -> x.grid.Stats.cycles));
      ("sim.grid_instrs", sum (fun x -> x.grid.Stats.instrs_executed));
      ( "sim.grid_commit_ratio",
        Report.div
          (sum (fun x -> x.grid.Stats.blocks_committed))
          (sum (fun x -> x.grid.Stats.blocks_executed)) );
      ("sim.inorder_cycles", sum (fun x -> x.inorder.Stats.cycles));
      ("sim.inorder_instrs", sum (fun x -> x.inorder.Stats.instrs_executed));
      ("code_instrs", sum (fun x -> x.instrs));
      ("core.blocks", sum (fun x -> x.blocks));
      ("core.fanout_moves", sum (fun x -> x.fanout_moves));
    ]
  in
  { Report.attempted = n; failed; facts }
