(* Arena-vs-fresh differential property.

   The cycle simulator's frame arena (one dataflow-core frame recycled
   per frame slot) is a pure allocation strategy: it must be
   observationally invisible. Every corpus kernel and 50 fixed-seed
   generated kernels are compiled under every oracle configuration and
   cycle-simulated twice — once with the pooled arena (the default) and
   once creating a fresh core frame per block — and the two runs must
   agree exactly on
   the return value, the final memory image, the committed-store
   count, and every [Stats] counter. *)

module Fz = Edge_fuzz
module Conv = Edge_isa.Conventions

type outcome = {
  ret : int64;
  mem : Edge_isa.Mem.t;
  stores : int;
  stats : Edge_sim.Stats.t option;
  error : string option;
}

let run_cycle ~arena (c : Dfp.Driver.compiled) : outcome =
  let regs = Array.make 128 0L in
  List.iteri (fun i v -> regs.(Conv.param_reg i) <- v) Edge_harness.Tracekit.default_args;
  let mem = Edge_harness.Tracekit.default_mem () in
  let placement n =
    match List.assoc_opt n c.Dfp.Driver.placements with
    | Some p -> p
    | None -> [||]
  in
  match
    Edge_sim.Cycle_sim.run ~placement ~arena c.Dfp.Driver.program ~regs ~mem
  with
  | Ok stats ->
      {
        ret = regs.(Conv.result_reg);
        mem;
        stores = Edge_isa.Mem.store_count mem;
        stats = Some stats;
        error = None;
      }
  | Error e -> { ret = 0L; mem; stores = 0; stats = None; error = Some e }

let check_agree ~label (pooled : outcome) (fresh : outcome) =
  match (pooled.error, fresh.error) with
  | Some ep, Some ef ->
      (* both fault: the diagnostic must not depend on the allocator *)
      Alcotest.(check string) (label ^ ": error text") ep ef
  | Some e, None | None, Some e ->
      Alcotest.failf "%s: only one allocation mode errored: %s" label e
  | None, None ->
      Alcotest.(check int64) (label ^ ": return value") pooled.ret fresh.ret;
      if not (Edge_isa.Mem.equal pooled.mem fresh.mem) then
        Alcotest.failf "%s: memory images differ" label;
      Alcotest.(check int)
        (label ^ ": committed stores")
        pooled.stores fresh.stores;
      if pooled.stats <> fresh.stats then
        Alcotest.failf "%s: stats differ:@.arena: %a@.fresh: %a" label
          (Fmt.option Edge_sim.Stats.pp)
          pooled.stats
          (Fmt.option Edge_sim.Stats.pp)
          fresh.stats

let check_kernel ~label (ast : Edge_lang.Ast.kernel) =
  List.iter
    (fun (cname, config) ->
      match Fz.Oracle.compile ast config with
      | Error e -> Alcotest.failf "%s/%s: %s" label cname e
      | Ok compiled ->
          check_agree
            ~label:(Printf.sprintf "%s/%s" label cname)
            (run_cycle ~arena:true compiled)
            (run_cycle ~arena:false compiled))
    Fz.Oracle.configs

let corpus_case (name, src) =
  Alcotest.test_case ("arena corpus " ^ name) `Quick (fun () ->
      match Edge_lang.Parser.parse src with
      | Error e -> Alcotest.failf "%s: parse: %s" name e
      | Ok ast -> check_kernel ~label:name ast)

(* seeds far from test_diff's (1..) and test_fuzz's (10_000..) *)
let generated () =
  for i = 0 to 49 do
    let seed = 20_000 + i in
    let size = Fz.Gen.size_for ~min_size:6 ~max_size:24 i in
    check_kernel
      ~label:(Printf.sprintf "seed %d size %d" seed size)
      (Fz.Gen.generate ~seed ~size)
  done

let tests =
  List.map corpus_case (Fz.Corpus.load_dir "corpus")
  @ [ Alcotest.test_case "arena 50 fixed seeds" `Quick generated ]
