module Gen_kernel = Test_support.Gen_kernel
module Hb = Edge_ir.Hblock
module Tac = Edge_ir.Tac
module Temp = Edge_ir.Temp
module O = Edge_isa.Opcode

let check = Alcotest.(check bool)

let compile src config =
  match Edge_lang.Lower.compile src with
  | Error e -> Alcotest.failf "lower: %s" e
  | Ok cfg -> (
      match Dfp.Driver.compile_cfg cfg config with
      | Error e -> Alcotest.failf "compile: %s" e
      | Ok c -> c)

let diamond_src =
  "kernel f(int x, int y) { int r = 0; if (x > y) { r = x * 2; } else { r = \
   y * 3; } return r; }"

let loop_src =
  "kernel f(int n, int* a) { int s = 0; int i; for (i = 0; i < n; i = i + 1) \
   { s = s + a[i]; } return s; }"

(* Hyper mode converts a diamond into one block; BB keeps four+ *)
let region_formation () =
  let c1 = compile diamond_src Dfp.Config.hyper_baseline in
  let c2 = compile diamond_src Dfp.Config.bb in
  check "hyper merges the diamond" true (c1.Dfp.Driver.static_blocks = 1);
  check "bb keeps basic blocks" true (c2.Dfp.Driver.static_blocks >= 4)

(* fanout reduction must strictly reduce explicit predicates and moves on
   predicated code (Section 5.1) *)
let fanout_reduces () =
  let base = compile diamond_src Dfp.Config.hyper_baseline in
  let intra = compile diamond_src Dfp.Config.intra in
  check "fewer explicit predicates" true
    (intra.Dfp.Driver.explicit_predicates < base.Dfp.Driver.explicit_predicates);
  check "no more fanout moves than baseline" true
    (intra.Dfp.Driver.static_fanout_moves <= base.Dfp.Driver.static_fanout_moves)

let merge_shrinks () =
  let both = compile loop_src Dfp.Config.both in
  let merged = compile loop_src Dfp.Config.merge in
  check "merging never grows code" true
    (merged.Dfp.Driver.static_instrs <= both.Dfp.Driver.static_instrs)

(* unrolling: the loop body must be replicated in the hyperblock *)
let unroll_fills_block () =
  let c = compile loop_src Dfp.Config.both in
  (* one loop block; its instruction count reflects several iterations *)
  let loop_block =
    List.find_opt
      (fun (_, b) ->
        Array.exists
          (fun (i : Edge_isa.Instr.t) ->
            match i.Edge_isa.Instr.opcode with O.Ld _ -> true | _ -> false)
          b.Edge_isa.Block.instrs)
      c.Dfp.Driver.program.Edge_isa.Program.blocks
  in
  match loop_block with
  | None -> Alcotest.fail "no loop block found"
  | Some (_, b) ->
      let loads =
        Array.fold_left
          (fun acc (i : Edge_isa.Instr.t) ->
            match i.Edge_isa.Instr.opcode with O.Ld _ -> acc + 1 | _ -> acc)
          0 b.Edge_isa.Block.instrs
      in
      check "several unrolled iterations (loads > 1)" true (loads > 1)

(* Figure 3a: in the unrolled loop the tests form an implicit
   predicate-AND chain: every test after the first is predicated *)
let predicate_and_chain () =
  let c = compile loop_src Dfp.Config.hyper_baseline in
  let b =
    List.find
      (fun (_, b) ->
        Array.exists
          (fun (i : Edge_isa.Instr.t) -> O.is_test i.Edge_isa.Instr.opcode)
          b.Edge_isa.Block.instrs
        && Array.length b.Edge_isa.Block.instrs > 10)
      c.Dfp.Driver.program.Edge_isa.Program.blocks
    |> snd
  in
  let tests =
    Array.to_list b.Edge_isa.Block.instrs
    |> List.filter (fun (i : Edge_isa.Instr.t) -> O.is_test i.Edge_isa.Instr.opcode)
  in
  let predicated_tests =
    List.filter Edge_isa.Instr.is_predicated tests
  in
  check "more than one test (unrolled)" true (List.length tests > 1);
  check "chained tests are predicated" true
    (List.length predicated_tests >= List.length tests - 1)

(* opt_fanout unit semantics on a hand-built hyperblock *)
let fanout_conditions () =
  let mk hop guard = { Hb.hop; guard } in
  let g = Hb.singleton 1 true in
  let h =
    {
      Hb.hname = "h";
      body =
        [
          mk (Hb.Op (Tac.Cmp { dst = 1; cond = O.Gt; fp = false; a = Tac.T 0; b = Tac.C 0L })) None;
          (* test defining a predicate used below: keeps its guard *)
          mk (Hb.Op (Tac.Cmp { dst = 2; cond = O.Lt; fp = false; a = Tac.T 0; b = Tac.C 9L })) (Some g);
          (* plain interior computation: guard removable *)
          mk (Hb.Op (Tac.Bin { dst = 3; op = O.Add; a = Tac.T 0; b = Tac.C 1L })) (Some g);
          (* store: guard must stay (condition 1) *)
          mk (Hb.Op (Tac.Store { width = O.W8; addr = Tac.T 0; off = 0; v = Tac.T 3 })) (Some g);
          (* output producer: guard must stay (condition 3) *)
          mk (Hb.Op (Tac.Un { dst = 4; op = O.Mov; a = Tac.T 3 })) (Some g);
          (* one of two defs of t5: guard must stay (condition 4) *)
          mk (Hb.Op (Tac.Un { dst = 5; op = O.Mov; a = Tac.C 1L })) (Some g);
          mk (Hb.Op (Tac.Un { dst = 5; op = O.Mov; a = Tac.C 2L })) (Some (Hb.singleton 1 false));
          mk (Hb.Op (Tac.Bin { dst = 6; op = O.Add; a = Tac.T 5; b = Tac.T 2 })) (Some (Hb.singleton 2 true));
        ];
      hexits = [ { Hb.eguard = None; etarget = None } ];
      houts = [ (4, 4) ];
    }
  in
  Dfp.Opt_fanout.run h;
  let guards = List.map (fun hi -> hi.Hb.guard <> None) h.Hb.body in
  check "test keeps guard (defines pred)" true (List.nth guards 1);
  check "interior add unguarded" false (List.nth guards 2);
  check "store keeps guard" true (List.nth guards 3);
  check "output mov keeps guard" true (List.nth guards 4);
  check "join def 1 keeps guard" true (List.nth guards 5);
  check "join def 2 keeps guard" true (List.nth guards 6);
  check "use of t2 unguarded now" false (List.nth guards 7)

(* merging categories on hand-built hyperblocks *)
let merge_categories () =
  let mk hop guard = { Hb.hop; guard } in
  let test01 =
    mk
      (Hb.Op (Tac.Cmp { dst = 1; cond = O.Gt; fp = false; a = Tac.T 0; b = Tac.C 0L }))
      None
  in
  (* category 1: same predicate, opposite polarity *)
  let h =
    {
      Hb.hname = "h";
      body =
        [
          test01;
          mk (Hb.Op (Tac.Un { dst = 2; op = O.Mov; a = Tac.T 0 })) (Some (Hb.singleton 1 true));
          mk (Hb.Op (Tac.Un { dst = 2; op = O.Mov; a = Tac.T 0 })) (Some (Hb.singleton 1 false));
        ];
      hexits = [ { Hb.eguard = None; etarget = None } ];
      houts = [];
    }
  in
  let n = Dfp.Opt_merge.merge_body h in
  check "cat1 merged" true (n = 1);
  check "cat1 result unguarded" true
    (List.for_all
       (fun hi ->
         match hi.Hb.hop with
         | Hb.Op (Tac.Un _) -> hi.Hb.guard = None
         | _ -> true)
       h.Hb.body);
  (* category 2: different predicates (nested), same polarity *)
  let h2 =
    {
      Hb.hname = "h2";
      body =
        [
          test01;
          mk
            (Hb.Op (Tac.Cmp { dst = 2; cond = O.Lt; fp = false; a = Tac.T 0; b = Tac.C 5L }))
            (Some (Hb.singleton 1 false));
          mk (Hb.Op (Tac.Un { dst = 3; op = O.Mov; a = Tac.C 7L })) (Some (Hb.singleton 1 true));
          mk (Hb.Op (Tac.Un { dst = 3; op = O.Mov; a = Tac.C 7L })) (Some (Hb.singleton 2 true));
        ];
      hexits = [ { Hb.eguard = None; etarget = None } ];
      houts = [];
    }
  in
  let n2 = Dfp.Opt_merge.merge_body h2 in
  check "cat2 merged" true (n2 = 1);
  let or_guard =
    List.exists
      (fun hi ->
        match hi.Hb.guard with
        | Some { Hb.gpreds = [ _; _ ]; _ } -> true
        | _ -> false)
      h2.Hb.body
  in
  check "cat2 produced predicate-OR guard" true or_guard;
  (* exits: two branches to the same label on disjoint predicates merge
     (Figure 3a's bro_f) *)
  let h3 =
    {
      Hb.hname = "h3";
      body =
        [
          test01;
          mk
            (Hb.Op (Tac.Cmp { dst = 2; cond = O.Gt; fp = false; a = Tac.T 0; b = Tac.C 1L }))
            (Some (Hb.singleton 1 true));
        ];
      hexits =
        [
          { Hb.eguard = Some (Hb.singleton 1 false); etarget = Some "out" };
          { Hb.eguard = Some (Hb.singleton 2 false); etarget = Some "out" };
          { Hb.eguard = Some (Hb.singleton 2 true); etarget = Some "h3" };
        ];
      houts = [];
    }
  in
  let n3 = Dfp.Opt_merge.merge_exits h3 in
  check "exit OR merge" true (n3 = 1);
  check "two exits remain" true (List.length h3.Hb.hexits = 2)

(* cross-config compile of a batch of kernels must respect machine
   limits; Block.validate runs inside codegen, so compilation succeeding
   is the assertion *)
let all_configs_compile () =
  List.iter
    (fun (_, config) ->
      List.iter
        (fun seed ->
          let ast = Gen_kernel.generate ~seed ~size:20 in
          match Edge_lang.Lower.lower ast with
          | Error e -> Alcotest.failf "lower: %s" e
          | Ok cfg -> (
              match Dfp.Driver.compile_cfg cfg config with
              | Error e -> Alcotest.failf "seed %d: %s" seed e
              | Ok _ -> ()))
        [ 1; 2; 3; 4; 5 ])
    (("Merge", Dfp.Config.merge) :: Dfp.Config.all_paper_configs)

let regalloc_pins () =
  let c = compile diamond_src Dfp.Config.both in
  let p = c.Dfp.Driver.program in
  (* the result must be written to the conventional register *)
  let writes_result =
    List.exists
      (fun (_, b) ->
        Array.exists
          (fun (w : Edge_isa.Block.write) ->
            w.Edge_isa.Block.wreg = Edge_isa.Conventions.result_reg)
          b.Edge_isa.Block.writes)
      p.Edge_isa.Program.blocks
  in
  check "result register written" true writes_result

(* the Section 7 sand pass: a serial chain converts, guards are rewritten
   onto the conjunctions, and the false consumers get exit predicates *)
let sand_pass () =
  let mk hop guard = { Hb.hop; guard } in
  let gen = Temp.Gen.create () in
  List.iter (fun n -> Temp.Gen.next_above gen n) [ 100 ];
  let test dst ?gpred () =
    mk
      (Hb.Op (Tac.Cmp { dst; cond = O.Gt; fp = false; a = Tac.T (50 + dst); b = Tac.C 0L }))
      (Option.map (fun p -> Hb.singleton p true) gpred)
  in
  let h =
    {
      Hb.hname = "h";
      body =
        [
          test 1 ();
          test 2 ~gpred:1 ();
          test 3 ~gpred:2 ();
          (* a consumer on the chain's conjunction *)
          mk (Hb.Op (Tac.Un { dst = 9; op = O.Mov; a = Tac.C 5L }))
            (Some (Hb.singleton 3 true));
          mk (Hb.Null_write 9) (Some (Hb.singleton 3 false));
        ];
      hexits =
        [
          { Hb.eguard = Some (Hb.singleton 3 true); etarget = Some "h" };
          { Hb.eguard = Some (Hb.singleton 3 false); etarget = None };
        ];
      houts = [ (9, 9) ];
    }
  in
  let n = Dfp.Opt_sand.run h ~gen in
  check "one chain converted" true (n = 1);
  let sands =
    List.filter
      (fun hi -> match hi.Hb.hop with Hb.Sand _ -> true | _ -> false)
      h.Hb.body
  in
  check "two conjunction sands + one exit sand" true (List.length sands = 3);
  (* chain tests are unguarded now *)
  List.iter
    (fun hi ->
      match hi.Hb.hop with
      | Hb.Op (Tac.Cmp { dst; _ }) when dst <= 3 ->
          check "test unguarded" true (hi.Hb.guard = None)
      | _ -> ())
    h.Hb.body;
  (* no guard references the old chain predicates 2,3 *)
  let refs_old g =
    List.exists (fun p -> p = 2 || p = 3) (Hb.guard_uses g)
  in
  check "body guards rewritten" false
    (List.exists (fun hi -> refs_old hi.Hb.guard) h.Hb.body);
  check "exit guards rewritten" false
    (List.exists (fun e -> refs_old e.Hb.eguard) h.Hb.hexits)

(* fanout reduction and merging are idempotent *)
let passes_idempotent () =
  List.iter
    (fun seed ->
      let ast = Gen_kernel.generate ~seed ~size:18 in
      let cfg = Result.get_ok (Edge_lang.Lower.lower ast) in
      Edge_ir.Ssa.construct cfg;
      Dfp.Opt_classic.run cfg;
      Edge_ir.Ssa.destruct cfg;
      Edge_ir.Cfg.prune_unreachable cfg;
      let retq = Temp.Gen.fresh cfg.Edge_ir.Cfg.gen in
      let liveness = Edge_ir.Liveness.compute cfg in
      let regions = Dfp.Region.select cfg ~budget:50 in
      List.iter
        (fun r ->
          let h = Result.get_ok (Dfp.If_convert.convert cfg liveness r ~retq) in
          Dfp.Opt_fanout.run h;
          let snapshot = Format.asprintf "%a" Hb.pp h in
          Dfp.Opt_fanout.run h;
          check "fanout idempotent" true
            (String.equal snapshot (Format.asprintf "%a" Hb.pp h));
          Dfp.Opt_merge.run h;
          let snapshot = Format.asprintf "%a" Hb.pp h in
          Dfp.Opt_merge.run h;
          check "merge idempotent" true
            (String.equal snapshot (Format.asprintf "%a" Hb.pp h)))
        regions)
    [ 7; 77; 777 ]

(* every emitted byte, placement, static count and pass counter of the
   pinned input set matches test/golden/compiled.digests (re-bless with
   [make regen-golden] after an intended code change) *)
let compiled_code_pinned () =
  let pinned =
    Test_support.Goldens.read_file (Test_support.Compiled_pins.path ())
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let now = Test_support.Compiled_pins.lines () in
  let key l =
    match String.split_on_char ' ' l with
    | name :: config :: _ -> name ^ " " ^ config
    | _ -> l
  in
  let differ =
    List.filter (fun l -> not (List.mem l pinned)) now |> List.map key
  in
  if differ <> [] then
    Alcotest.failf "%d of %d compiles differ from %s, first: %s"
      (List.length differ) (List.length now)
      Test_support.Compiled_pins.file_name
      (String.concat ", " (List.filteri (fun i _ -> i < 5) differ));
  Alcotest.(check int) "pinned compiles" (List.length pinned) (List.length now)

(* a profiled compile records host time per stage and returns the same
   artifact as an unprofiled one *)
let profiled_compile_equal () =
  List.iter
    (fun (name, config) ->
      let w = Option.get (Edge_workloads.Registry.find name) in
      let lower () =
        Result.get_ok
          (Result.bind (Edge_workloads.Workload.parse w) Edge_lang.Lower.lower)
      in
      let plain = Dfp.Driver.compile_cfg ~check:true (lower ()) config in
      let m = Edge_obs.Metrics.create () in
      let profiled =
        Dfp.Driver.compile_cfg ~check:true ~profile:m (lower ()) config
      in
      check (name ^ " same compiled") true (plain = profiled);
      let stages = List.map fst (Edge_obs.Metrics.counters m) in
      List.iter
        (fun stage ->
          check
            (name ^ " times " ^ stage)
            true
            (List.mem ("compile.stage." ^ stage ^ "_us") stages))
        [ "ssa"; "opt_classic"; "regions"; "codegen"; "schedule"; "check" ])
    [
      ("ospf", Dfp.Config.both);
      ("a2time01", Dfp.Config.hand_optimized);
      ("bitmnp01", Dfp.Config.bb);
    ]

(* Compiles of one program in one domain share its config-independent
   prefix.  Back to back in a fresh domain, each input is compiled on
   fresh lowerings under configs that miss, hit, change the unroll
   limit, bypass the cache, and turn the checker on;
   every result must equal the same compile run alone in a domain of
   its own, whose cache is empty. *)
let prefix_reuse_transparent () =
  let module Pins = Test_support.Compiled_pins in
  let module Goldens = Test_support.Goldens in
  let both = Dfp.Config.both in
  let configs =
    [
      ("Merge", false, Dfp.Config.merge);
      ("BB", false, Dfp.Config.bb);
      ("Hyper", false, Dfp.Config.hyper_baseline);
      ("Both", false, both);
      ("Both unroll 2", false, { both with Dfp.Config.max_unroll = 2 });
      ("Hand", false, Dfp.Config.hand_optimized);
      ("Both checked", true, both);
    ]
  in
  let inputs =
    List.map
      (fun k ->
        ( k,
          fun () ->
            Result.bind
              (Edge_lang.Parser.parse (Goldens.kernel_source k))
              Edge_lang.Lower.lower ))
      Goldens.kernels
    @ List.init 10 (fun i ->
          let seed = 41 + i in
          let size = Edge_fuzz.Gen.size_for ~min_size:6 ~max_size:45 i in
          ( Printf.sprintf "gen:seed=%d,size=%d" seed size,
            fun () -> Edge_lang.Lower.lower (Edge_fuzz.Gen.generate ~seed ~size) ))
  in
  let compile lower (_, check, config) =
    Pins.fields
      (Result.bind (lower ()) (fun cfg ->
           Dfp.Driver.compile_cfg ~check cfg config))
  in
  let in_fresh_domain f = Domain.join (Domain.spawn f) in
  Pins.without_enum_hook @@ fun () ->
  List.iter
    (fun (name, lower) ->
      let shared =
        in_fresh_domain (fun () -> List.map (compile lower) configs)
      in
      List.iter2
        (fun ((cn, _, _) as c) got ->
          Alcotest.(check (list string))
            (name ^ " " ^ cn)
            (in_fresh_domain (fun () -> compile lower c))
            got)
        configs shared)
    inputs

(* Compiles of one program in one domain share the stages of their pass
   pipelines.  Each pinned input is compiled under its pinned configs
   (every oracle config, and [hand_optimized] for the registry
   workloads) in three orders: as listed, reversed, and each config
   twice in a row.  Every result must equal the same compile run alone.
   Each run starts from an empty scope ([Scope.leave], as in a fresh
   domain, without a second domain's garbage-collector
   synchronisation), so its first compile is that config's compile
   alone.  A compile that finds all of its stages stored stores nothing,
   so the first compile of each pair in the twice order sees what the
   same config sees in the listed order: one run checks both orders. *)
let stage_reuse_transparent () =
  let module Pins = Test_support.Compiled_pins in
  let from_empty_scope f =
    Edge_check.Scope.leave ();
    f ()
  in
  Pins.without_enum_hook @@ fun () ->
  List.iter
    (fun (name, lower, configs) ->
      let lowered = lower () in
      let compile (_, config) =
        Pins.fields
          (Result.bind lowered (fun cfg ->
               Dfp.Driver.compile_cfg ~check:false (Edge_ir.Cfg.copy cfg)
                 config))
      in
      let runs =
        List.map
          (fun (order, configs) ->
            let shared = from_empty_scope (fun () -> List.map compile configs) in
            (order, configs, shared))
          [
            ("reversed", List.rev configs);
            ("twice", List.concat_map (fun c -> [ c; c ]) configs);
          ]
      in
      let alone =
        List.map
          (fun ((cn, _) as c) ->
            match
              List.find_opt
                (fun (_, configs, _) -> fst (List.hd configs) = cn)
                runs
            with
            | Some (_, _, first :: _) -> (cn, first)
            | _ -> (cn, from_empty_scope (fun () -> compile c)))
          configs
      in
      List.iter
        (fun (order, configs, shared) ->
          List.iteri
            (fun i ((cn, _), got) ->
              let order =
                if order = "twice" && i mod 2 = 0 then "listed" else order
              in
              Alcotest.(check (list string))
                (Printf.sprintf "%s %s (%s)" name cn order)
                (List.assoc cn alone) got)
            (List.combine configs shared))
        runs)
    (Pins.programs ())

(* The checker only reads: with it on, every pinned input compiles
   under each of its pinned configs to the line [compiled code pinned]
   compares, which is compiled with it off.  Both sets run in file
   order, so each program's compiles share their stages as a caller's
   would. *)
let checked_equals_unchecked () =
  let module Pins = Test_support.Compiled_pins in
  let checked =
    Pins.without_enum_hook (fun () ->
        List.map (Pins.line ~check:true) (Pins.inputs ()))
  in
  List.iter2
    (fun unchecked checked ->
      Alcotest.(check string) "checked compile" unchecked checked)
    (Pins.lines ()) checked

(* A checked compile after an unchecked one of the same CFG in one
   domain runs every enumerator check that a checked compile from an
   empty scope runs: the two compiles are different programs, so the
   checked one resumes from none of the unchecked one's stages, whose
   passes ran without checker hooks. *)
let checked_after_unchecked () =
  let module G = Test_support.Goldens in
  let module Oracle = Edge_fuzz.Oracle in
  Edge_fuzz.Ineff_oracle.install ();
  let hook = Option.get !Dfp.Opt_ineff.cross_validate in
  let calls = Atomic.make 0 in
  Fun.protect ~finally:(fun () -> Dfp.Opt_ineff.cross_validate := Some hook)
  @@ fun () ->
  Dfp.Opt_ineff.cross_validate :=
    Some
      (fun h p ->
        Atomic.incr calls;
        hook h p);
  let checked_calls ~after_unchecked ast config =
    Domain.join
      (Domain.spawn (fun () ->
           if after_unchecked then ignore (Oracle.compile ~check:false ast config);
           Atomic.set calls 0;
           ignore (Oracle.compile ~check:true ast config);
           Atomic.get calls))
  in
  let total = ref 0 in
  List.iter
    (fun kernel ->
      let ast = Result.get_ok (Edge_lang.Parser.parse (G.kernel_source kernel)) in
      List.iter
        (fun (cn, config) ->
          let alone = checked_calls ~after_unchecked:false ast config in
          total := !total + alone;
          Alcotest.(check int)
            (Printf.sprintf "%s %s: hook calls" kernel cn)
            alone
            (checked_calls ~after_unchecked:true ast config))
        Oracle.configs)
    G.kernels;
  check "some plan reaches the hook" true (!total > 0)

(* every named config, [hand_optimized] included *)
let named_configs =
  Dfp.Config.all_configs @ [ ("Hand", Dfp.Config.hand_optimized) ]

(* The driver's view of a compile, which edgec prints, is the compile's
   own: one hyperblock per emitted block, in emission order, for every
   example kernel under every named config, and for the pinned kernels
   whose compile re-partitions a region after its first attempt. *)
let hyperblocks_are_emitted () =
  let module G = Test_support.Goldens in
  let examples =
    List.concat_map
      (fun k ->
        List.map
          (fun (cn, config) ->
            (k, cn, config, fun () -> Edge_lang.Lower.compile (G.kernel_source k)))
          named_configs)
      G.kernels
  in
  List.iter
    (fun (name, cn, config, lower) ->
      let what = name ^ " " ^ cn in
      match
        ( Result.bind (lower ()) (fun cfg -> Dfp.Driver.compile_cfg cfg config),
          Result.bind (lower ()) (fun cfg -> Dfp.Driver.hyperblocks cfg config) )
      with
      | Ok c, Ok (_, hblocks) ->
          Alcotest.(check (list string))
            what
            (List.map fst c.Dfp.Driver.program.Edge_isa.Program.blocks)
            (List.map (fun (h : Hb.t) -> h.Hb.hname) hblocks)
      | Error e, _ | _, Error e -> Alcotest.failf "%s: %s" what e)
    (examples @ Test_support.Compiled_pins.refined ())

(* The command-line tools' config names: any case, each named config
   with its canonical name; an unknown name is an error listing them. *)
let config_names () =
  List.iter
    (fun (name, config) ->
      List.iter
        (fun s ->
          match Dfp.Config.find s with
          | Ok (n, c) -> check s true (n = name && c = config)
          | Error e -> Alcotest.fail e)
        [ name; String.lowercase_ascii name; String.uppercase_ascii name ])
    named_configs;
  match Dfp.Config.find "nope" with
  | Ok _ -> Alcotest.fail "unknown config accepted"
  | Error e ->
      Alcotest.(check string)
        "unknown config"
        "unknown config nope (Merge|Mov4|Sand|BB|Hyper|Intra|Inter|Both|Hand)"
        e

let tests =
  [
    Alcotest.test_case "region formation" `Quick region_formation;
    Alcotest.test_case "fanout reduction reduces" `Quick fanout_reduces;
    Alcotest.test_case "merging shrinks" `Quick merge_shrinks;
    Alcotest.test_case "unrolling fills blocks" `Quick unroll_fills_block;
    Alcotest.test_case "implicit predicate-AND chain" `Quick predicate_and_chain;
    Alcotest.test_case "fanout conditions (5.1)" `Quick fanout_conditions;
    Alcotest.test_case "merge categories (5.3)" `Quick merge_categories;
    Alcotest.test_case "all configs compile" `Quick all_configs_compile;
    Alcotest.test_case "regalloc pins result" `Quick regalloc_pins;
    Alcotest.test_case "sand pass (7)" `Quick sand_pass;
    Alcotest.test_case "passes idempotent" `Quick passes_idempotent;
    Alcotest.test_case "compiled code pinned" `Quick compiled_code_pinned;
    Alcotest.test_case "profiled compile equal" `Quick profiled_compile_equal;
    Alcotest.test_case "prefix reuse transparent" `Quick prefix_reuse_transparent;
    Alcotest.test_case "stage reuse transparent" `Quick stage_reuse_transparent;
    Alcotest.test_case "checked compile equals unchecked" `Quick
      checked_equals_unchecked;
    Alcotest.test_case "checked after unchecked runs every check" `Quick
      checked_after_unchecked;
    Alcotest.test_case "hyperblocks are the emitted blocks" `Quick
      hyperblocks_are_emitted;
    Alcotest.test_case "config names" `Quick config_names;
  ]
