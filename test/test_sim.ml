module I = Edge_isa.Instr
module T = Edge_isa.Target
module O = Edge_isa.Opcode
module B = Edge_isa.Block
module Tok = Edge_isa.Token

let check = Alcotest.(check bool)

let run_one b =
  let regs = Array.make 128 0L in
  let mem = Edge_isa.Mem.create ~size:4096 in
  let stats = Edge_sim.Stats.create () in
  (regs, mem, stats, Edge_sim.Functional.run_block b ~regs ~mem ~stats)

(* run a one-block program on every executor: the functional
   interpreter, the grid and the in-order core *)
let on_all_paths (b : B.t) =
  let program = Result.get_ok (Edge_isa.Program.make ~entry:b.B.name [ b ]) in
  let run path f =
    let regs = Array.make 128 0L in
    let mem = Edge_isa.Mem.create ~size:4096 in
    (path, f program ~regs ~mem)
  in
  [
    run "interpreter" Edge_sim.Functional.run;
    run "grid" (fun p ~regs ~mem -> Edge_sim.Cycle_sim.run p ~regs ~mem);
    run "in-order" (fun p ~regs ~mem -> Edge_sim.Inorder_sim.run p ~regs ~mem);
  ]

(* predicate-OR: two producers target one predicate operand; only the
   matching one fires the consumer (Section 3.5 / rule 3) *)
let predicate_or () =
  let b =
    {
      B.name = "por";
      instrs =
        [|
          I.make ~id:0 ~opcode:O.Movi ~imm:0L
            ~targets:[ T.To_instr { id = 2; slot = T.Left } ] ();
          I.make ~id:1 ~opcode:O.Movi ~imm:1L
            ~targets:[ T.To_instr { id = 3; slot = T.Left } ] ();
          I.make ~id:2 ~opcode:(O.Tsti O.Eq) ~imm:7L
            ~targets:[ T.To_instr { id = 4; slot = T.Pred } ] ();
          I.make ~id:3 ~opcode:(O.Tsti O.Eq) ~imm:1L
            ~targets:[ T.To_instr { id = 4; slot = T.Pred } ] ();
          I.make ~id:4 ~opcode:O.Movi ~pred:I.If_true ~imm:42L
            ~targets:[ T.To_write 0 ] ();
          I.make ~id:5 ~opcode:O.Halt ();
        |];
      reads = [||];
      writes = [| { B.wslot = 0; wreg = 9 } |];
      store_lsids = [];
      exits = [| B.halt_exit |];
    }
  in
  let regs, _, _, r = run_one b in
  (match r with
  | Ok o -> check "no fault" true (o.Edge_sim.Functional.faulted = None)
  | Error e -> Alcotest.failf "%s" e);
  check "consumer fired on the one matching predicate" true (regs.(9) = 42L)

(* two matching predicates violate rule 3 and must be diagnosed *)
let double_match_rejected () =
  let b =
    {
      B.name = "dm";
      instrs =
        [|
          I.make ~id:0 ~opcode:O.Movi ~imm:1L
            ~targets:[ T.To_instr { id = 2; slot = T.Left } ] ();
          I.make ~id:1 ~opcode:O.Movi ~imm:1L
            ~targets:[ T.To_instr { id = 3; slot = T.Left } ] ();
          I.make ~id:2 ~opcode:(O.Tsti O.Eq) ~imm:1L
            ~targets:[ T.To_instr { id = 4; slot = T.Pred } ] ();
          I.make ~id:3 ~opcode:(O.Tsti O.Eq) ~imm:1L
            ~targets:[ T.To_instr { id = 4; slot = T.Pred } ] ();
          I.make ~id:4 ~opcode:O.Movi ~pred:I.If_true ~imm:42L
            ~targets:[ T.To_write 0 ] ();
          I.make ~id:5 ~opcode:O.Halt ();
        |];
      reads = [||];
      writes = [| { B.wslot = 0; wreg = 9 } |];
      store_lsids = [];
      exits = [| B.halt_exit |];
    }
  in
  let _, _, _, r = run_one b in
  match r with
  | Error e -> check "mentions predicates" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "two matching predicates must be rejected"

(* null token to a register write: the write resolves but architectural
   state is unchanged (Section 4.2) *)
let null_write () =
  let b =
    {
      B.name = "nw";
      instrs =
        [|
          I.make ~id:0 ~opcode:O.Movi ~imm:0L
            ~targets:[ T.To_instr { id = 1; slot = T.Left } ] ();
          I.make ~id:1 ~opcode:(O.Tsti O.Eq) ~imm:0L
            ~targets:[ T.To_instr { id = 2; slot = T.Pred }; T.To_instr { id = 3; slot = T.Pred } ]
            ();
          I.make ~id:2 ~opcode:O.Movi ~pred:I.If_false ~imm:42L
            ~targets:[ T.To_write 0 ] ();
          I.make ~id:3 ~opcode:O.Null ~pred:I.If_true
            ~targets:[ T.To_write 0 ] ();
          I.make ~id:4 ~opcode:O.Halt ();
        |];
      reads = [||];
      writes = [| { B.wslot = 0; wreg = 9 } |];
      store_lsids = [];
      exits = [| B.halt_exit |];
    }
  in
  let regs, _, _, r = run_one b in
  regs.(9) <- 0L;
  (* note: run_one already executed; rerun with a sentinel *)
  let regs2 = Array.make 128 0L in
  regs2.(9) <- 1234L;
  let mem = Edge_isa.Mem.create ~size:4096 in
  let stats = Edge_sim.Stats.create () in
  (match Edge_sim.Functional.run_block b ~regs:regs2 ~mem ~stats with
  | Ok o -> check "no fault" true (o.Edge_sim.Functional.faulted = None)
  | Error e -> Alcotest.failf "%s" e);
  check "nulled write preserves register" true (regs2.(9) = 1234L);
  ignore (regs, r)

(* null token to a store: the store slot resolves as a null store and a
   later load is not blocked (Section 4.2) *)
let null_store_and_lsid_order () =
  let b =
    {
      B.name = "ns";
      instrs =
        [|
          (* address 64 *)
          I.make ~id:0 ~opcode:O.Movi ~imm:64L
            ~targets:
              [ T.To_instr { id = 3; slot = T.Left }; T.To_instr { id = 4; slot = T.Left } ]
            ();
          I.make ~id:1 ~opcode:O.Movi ~imm:0L
            ~targets:[ T.To_instr { id = 2; slot = T.Left } ] ();
          I.make ~id:2 ~opcode:(O.Tsti O.Eq) ~imm:0L
            ~targets:[ T.To_instr { id = 5; slot = T.Pred } ] ();
          (* store lsid 0, waiting for data that never comes on this path:
             the null resolves it *)
          I.make ~id:3 ~opcode:(O.St O.W8) ~lsid:0 ();
          (* load lsid 1 must wait for lsid 0, then read memory *)
          I.make ~id:4 ~opcode:(O.Ld O.W8) ~lsid:1
            ~targets:[ T.To_write 0 ] ();
          I.make ~id:5 ~opcode:O.Null ~pred:I.If_true
            ~targets:[ T.To_instr { id = 3; slot = T.Right } ] ();
          I.make ~id:6 ~opcode:O.Halt ();
        |];
      reads = [||];
      writes = [| { B.wslot = 0; wreg = 9 } |];
      store_lsids = [ 0 ];
      exits = [| B.halt_exit |];
    }
  in
  let regs = Array.make 128 0L in
  let mem = Edge_isa.Mem.create ~size:4096 in
  Edge_isa.Mem.store_int mem 64 777L;
  let stats = Edge_sim.Stats.create () in
  (match Edge_sim.Functional.run_block b ~regs ~mem ~stats with
  | Ok o -> check "no fault" true (o.Edge_sim.Functional.faulted = None)
  | Error e -> Alcotest.failf "%s" e);
  check "load saw memory after null store" true (regs.(9) = 777L)

(* store-to-load forwarding within a block, in LSID order *)
let store_forwarding () =
  let b =
    {
      B.name = "fw";
      instrs =
        [|
          I.make ~id:0 ~opcode:O.Movi ~imm:64L
            ~targets:
              [ T.To_instr { id = 2; slot = T.Left }; T.To_instr { id = 3; slot = T.Left } ]
            ();
          I.make ~id:1 ~opcode:O.Movi ~imm:55L
            ~targets:[ T.To_instr { id = 2; slot = T.Right } ] ();
          I.make ~id:2 ~opcode:(O.St O.W8) ~lsid:0 ();
          I.make ~id:3 ~opcode:(O.Ld O.W8) ~lsid:1 ~targets:[ T.To_write 0 ] ();
          I.make ~id:4 ~opcode:O.Halt ();
        |];
      reads = [||];
      writes = [| { B.wslot = 0; wreg = 9 } |];
      store_lsids = [ 0 ];
      exits = [| B.halt_exit |];
    }
  in
  let regs, mem, _, r = run_one b in
  (match r with
  | Ok o -> check "no fault" true (o.Edge_sim.Functional.faulted = None)
  | Error e -> Alcotest.failf "%s" e);
  check "forwarded value" true (regs.(9) = 55L);
  check "store committed" true (Edge_isa.Mem.load_int mem 64 = 55L)

(* a mispredicated path's exception is filtered (Section 4.4) *)
let exception_filtered () =
  let b =
    {
      B.name = "exc";
      instrs =
        [|
          (* a faulting load on the not-taken path *)
          I.make ~id:0 ~opcode:O.Movi ~imm:3999L
            ~targets:[ T.To_instr { id = 1; slot = T.Left } ] ();
          I.make ~id:1 ~opcode:(O.Ld O.W8) ~lsid:0
            ~targets:[ T.To_instr { id = 4; slot = T.Left } ] ();
          I.make ~id:2 ~opcode:O.Movi ~imm:0L
            ~targets:[ T.To_instr { id = 3; slot = T.Left } ] ();
          I.make ~id:3 ~opcode:(O.Tsti O.Eq) ~imm:0L
            ~targets:
              [ T.To_instr { id = 4; slot = T.Pred }; T.To_instr { id = 5; slot = T.Pred } ]
            ();
          (* mov of the excepting value, predicated false: never fires *)
          I.make ~id:4 ~opcode:(O.Un O.Mov) ~pred:I.If_false
            ~targets:[ T.To_write 0 ] ();
          I.make ~id:5 ~opcode:O.Movi ~pred:I.If_true ~imm:5L
            ~targets:[ T.To_write 0 ] ();
          I.make ~id:6 ~opcode:O.Halt ();
        |];
      reads = [||];
      writes = [| { B.wslot = 0; wreg = 9 } |];
      store_lsids = [];
      exits = [| B.halt_exit |];
    }
  in
  let regs, _, _, r = run_one b in
  (match r with
  | Ok o -> check "exception filtered" true (o.Edge_sim.Functional.faulted = None)
  | Error e -> Alcotest.failf "%s" e);
  check "true path value committed" true (regs.(9) = 5L)

(* an exception reaching a committed output faults the block *)
let exception_raises () =
  let b =
    {
      B.name = "exc2";
      instrs =
        [|
          I.make ~id:0 ~opcode:O.Movi ~imm:3999L
            ~targets:[ T.To_instr { id = 1; slot = T.Left } ] ();
          I.make ~id:1 ~opcode:(O.Ld O.W8) ~lsid:0 ~targets:[ T.To_write 0 ] ();
          I.make ~id:2 ~opcode:O.Halt ();
        |];
      reads = [||];
      writes = [| { B.wslot = 0; wreg = 9 } |];
      store_lsids = [];
      exits = [| B.halt_exit |];
    }
  in
  let _, _, _, r = run_one b in
  match r with
  | Ok o -> check "faulted" true (o.Edge_sim.Functional.faulted <> None)
  | Error e -> Alcotest.failf "malformed: %s" e

(* deadlock diagnosis: an output that can never be produced *)
let deadlock_diagnosed () =
  let b =
    {
      B.name = "dl";
      instrs =
        [|
          I.make ~id:0 ~opcode:O.Movi ~imm:0L
            ~targets:[ T.To_instr { id = 1; slot = T.Left } ] ();
          I.make ~id:1 ~opcode:(O.Tsti O.Eq) ~imm:1L
            ~targets:[ T.To_instr { id = 2; slot = T.Pred } ] ();
          (* only fires on true, but the test yields false: W0 starves *)
          I.make ~id:2 ~opcode:O.Movi ~pred:I.If_true ~imm:1L
            ~targets:[ T.To_write 0 ] ();
          I.make ~id:3 ~opcode:O.Halt ();
        |];
      reads = [||];
      writes = [| { B.wslot = 0; wreg = 9 } |];
      store_lsids = [];
      exits = [| B.halt_exit |];
    }
  in
  let _, _, _, r = run_one b in
  (match r with
  | Error e -> check "deadlock reported" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "starved output must be diagnosed");
  (* one diagnostic on every path *)
  List.iter
    (fun (path, r) ->
      match r with
      | Error e ->
          Alcotest.(check string) path
            "malformed: block dl deadlocked; missing: W0" e
      | Ok _ -> Alcotest.failf "%s: starved output must be diagnosed" path)
    (on_all_paths b)

let cache_behaviour () =
  let c =
    Edge_sim.Cache.create ~size_bytes:1024 ~ways:2 ~line_bytes:64 ~hit_latency:2
  in
  check "cold miss" false (Edge_sim.Cache.access c ~addr:0L ~write:false);
  check "hit after fill" true (Edge_sim.Cache.access c ~addr:8L ~write:false);
  check "different line misses" false
    (Edge_sim.Cache.access c ~addr:64L ~write:false);
  (* 8 sets * 64B: addresses 0 and 1024 and 2048 map to set 0 in a 2-way
     cache; the third evicts the LRU (addr 0) *)
  ignore (Edge_sim.Cache.access c ~addr:1024L ~write:false);
  ignore (Edge_sim.Cache.access c ~addr:2048L ~write:false);
  check "lru evicted" false (Edge_sim.Cache.access c ~addr:0L ~write:false)

let predictor_learns () =
  let p = Edge_sim.Predictor.create () in
  check "cold predicts nothing" true (Edge_sim.Predictor.predict p ~block:"b" = None);
  Edge_sim.Predictor.update p ~block:"b" ~exit_idx:0 ~target:"c";
  check "learned target" true (Edge_sim.Predictor.predict p ~block:"b" = Some "c")

(* early termination ablation: disabling it cannot make execution faster *)
let early_termination_ablation () =
  let src =
    "kernel f(int n, int* a) { int s = 0; int i; for (i = 0; i < n; i = i + \
     1) { if (a[i] > 0) { s = s + a[i] * 3; } else { s = s - 1; } } return \
     s; }"
  in
  let compile () =
    match Edge_lang.Lower.compile src with
    | Error e -> Alcotest.failf "%s" e
    | Ok cfg -> (
        match Dfp.Driver.compile_cfg cfg Dfp.Config.hyper_baseline with
        | Error e -> Alcotest.failf "%s" e
        | Ok c -> c)
  in
  let run machine =
    let c = compile () in
    let regs = Array.make 128 0L in
    regs.(Edge_isa.Conventions.param_reg 0) <- 16L;
    regs.(Edge_isa.Conventions.param_reg 1) <- 1024L;
    let mem = Edge_isa.Mem.create ~size:8192 in
    for i = 0 to 15 do
      Edge_isa.Mem.store_int mem (1024 + (8 * i)) (Int64.of_int (i - 8))
    done;
    let placement n =
      match List.assoc_opt n c.Dfp.Driver.placements with
      | Some p -> p
      | None -> [||]
    in
    match
      Edge_sim.Cycle_sim.run ~machine ~placement c.Dfp.Driver.program ~regs
        ~mem
    with
    | Ok s -> s.Edge_sim.Stats.cycles
    | Error e -> Alcotest.failf "cycle: %s" e
  in
  let fast = run Edge_sim.Machine.default in
  let slow =
    run { Edge_sim.Machine.default with Edge_sim.Machine.early_termination = false }
  in
  check "early termination helps (or is neutral)" true (fast <= slow)


(* Section 4.4: an arriving predicate with the exception bit set is
   interpreted as a false predicate, and if the instruction fires its
   output carries the exception tag. *)
let exc_predicate_as_false () =
  let b =
    {
      B.name = "excpred";
      instrs =
        [|
          (* bad load produces an exception-tagged token used as a predicate *)
          I.make ~id:0 ~opcode:O.Movi ~imm:3999L
            ~targets:[ T.To_instr { id = 1; slot = T.Left } ] ();
          I.make ~id:1 ~opcode:(O.Ld O.W8) ~lsid:0
            ~targets:
              [ T.To_instr { id = 2; slot = T.Pred }; T.To_instr { id = 3; slot = T.Pred } ]
            ();
          (* predicated on true: must NOT fire *)
          I.make ~id:2 ~opcode:O.Movi ~pred:I.If_true ~imm:1L
            ~targets:[ T.To_write 0 ] ();
          (* predicated on false: fires, and its output carries exc *)
          I.make ~id:3 ~opcode:O.Movi ~pred:I.If_false ~imm:2L
            ~targets:[ T.To_write 0 ] ();
          I.make ~id:4 ~opcode:O.Halt ();
        |];
      reads = [||];
      writes = [| { B.wslot = 0; wreg = 9 } |];
      store_lsids = [];
      exits = [| B.halt_exit |];
    }
  in
  let _, _, _, r = run_one b in
  match r with
  | Ok o ->
      (* the false-predicated movi fired and its exception-tagged output
         reached a write: the block must fault (Section 4.4: "If the
         instruction fires, it produces an exception-tagged output") *)
      check "block faulted" true (o.Edge_sim.Functional.faulted <> None)
  | Error e -> Alcotest.failf "malformed: %s" e

(* inter-block communication: a value written by one block is read by the
   next, through the cycle simulator's in-flight forwarding *)
let interblock_forwarding () =
  let mk_block name imm wreg exits ~read =
    {
      B.name;
      instrs =
        (match read with
        | false ->
            [|
              I.make ~id:0 ~opcode:O.Movi ~imm ~targets:[ T.To_write 0 ] ();
              I.make ~id:1 ~opcode:O.Bro ~exit_idx:0 ();
            |]
        | true ->
            [|
              I.make ~id:0 ~opcode:(O.Iopi O.Add) ~imm
                ~targets:[ T.To_write 0 ] ();
              I.make ~id:1 ~opcode:O.Bro ~exit_idx:0 ();
            |]);
      reads =
        (if read then
           [| { B.rslot = 0; reg = 9; rtargets = [ T.To_instr { id = 0; slot = T.Left } ] } |]
         else [||]);
      writes = [| { B.wslot = 0; wreg } |];
      store_lsids = [];
      exits;
    }
  in
  let b1 = mk_block "one" 5L 9 [| "two" |] ~read:false in
  let b2 = mk_block "two" 7L 9 [| "three" |] ~read:true in
  let b3 = mk_block "three" 100L 1 [| B.halt_exit |] ~read:true in
  (* three reads g9 (=12) and adds 100 into g1, then halts via Bro *)
  let b3 =
    { b3 with B.instrs = [| (b3.B.instrs.(0)); I.make ~id:1 ~opcode:O.Halt () |] }
  in
  let program = Result.get_ok (Edge_isa.Program.make ~entry:"one" [ b1; b2; b3 ]) in
  let regs = Array.make 128 0L in
  let mem = Edge_isa.Mem.create ~size:1024 in
  (match Edge_sim.Cycle_sim.run program ~regs ~mem with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "cycle: %s" e);
  check "chained through in-flight writes" true (regs.(1) = 112L)

(* a store in an older in-flight block must be visible to a load in a
   younger block before either commits *)
let interblock_store_to_load () =
  let store_block =
    {
      B.name = "producer";
      instrs =
        [|
          I.make ~id:0 ~opcode:O.Movi ~imm:64L
            ~targets:[ T.To_instr { id = 2; slot = T.Left } ] ();
          I.make ~id:1 ~opcode:O.Movi ~imm:42L
            ~targets:[ T.To_instr { id = 2; slot = T.Right } ] ();
          I.make ~id:2 ~opcode:(O.St O.W8) ~lsid:0 ();
          I.make ~id:3 ~opcode:O.Bro ~exit_idx:0 ();
        |];
      reads = [||];
      writes = [||];
      store_lsids = [ 0 ];
      exits = [| "consumer" |];
    }
  in
  let load_block =
    {
      B.name = "consumer";
      instrs =
        [|
          I.make ~id:0 ~opcode:O.Movi ~imm:64L
            ~targets:[ T.To_instr { id = 1; slot = T.Left } ] ();
          I.make ~id:1 ~opcode:(O.Ld O.W8) ~lsid:0 ~targets:[ T.To_write 0 ] ();
          I.make ~id:2 ~opcode:O.Halt ();
        |];
      reads = [||];
      writes = [| { B.wslot = 0; wreg = 1 } |];
      store_lsids = [];
      exits = [| B.halt_exit |];
    }
  in
  let program =
    Result.get_ok (Edge_isa.Program.make ~entry:"producer" [ store_block; load_block ])
  in
  let regs = Array.make 128 0L in
  let mem = Edge_isa.Mem.create ~size:1024 in
  (match Edge_sim.Cycle_sim.run program ~regs ~mem with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "cycle: %s" e);
  check "forwarded across blocks" true (regs.(1) = 42L);
  check "committed to memory" true (Edge_isa.Mem.load_int mem 64 = 42L)

(* the watchdog fires on a self-looping program instead of hanging *)
let watchdog_fires () =
  let b =
    {
      B.name = "spin";
      instrs = [| I.make ~id:0 ~opcode:O.Bro ~exit_idx:0 () |];
      reads = [||];
      writes = [||];
      store_lsids = [];
      exits = [| "spin" |];
    }
  in
  let program = Result.get_ok (Edge_isa.Program.make ~entry:"spin" [ b ]) in
  let machine = { Edge_sim.Machine.default with Edge_sim.Machine.max_cycles = 5000 } in
  let regs = Array.make 128 0L in
  let mem = Edge_isa.Mem.create ~size:64 in
  match Edge_sim.Cycle_sim.run ~machine program ~regs ~mem with
  | Error e -> check "watchdog" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "must not halt"

(* stats sanity on a real run: committed <= executed blocks, committed
   instr class counts add up *)
let stats_sanity () =
  let w = Option.get (Edge_workloads.Registry.find "canrdr01") in
  match Edge_harness.Experiment.run_one w ("Both", Dfp.Config.both) with
  | Error e -> Alcotest.failf "%s" e
  | Ok r ->
      let s = r.Edge_harness.Experiment.stats in
      check "committed <= executed blocks" true
        (s.Edge_sim.Stats.blocks_committed <= s.Edge_sim.Stats.blocks_executed);
      check "executed >= committed instrs" true
        (s.Edge_sim.Stats.instrs_executed >= s.Edge_sim.Stats.instrs_committed);
      check "moves within executed" true
        (s.Edge_sim.Stats.moves_executed <= s.Edge_sim.Stats.instrs_executed);
      check "cycles positive" true (s.Edge_sim.Stats.cycles > 0);
      check "fetched >= executed" true
        (s.Edge_sim.Stats.instrs_fetched + s.Edge_sim.Stats.instrs_executed > 0)


(* Section 7 extension: the short-circuiting AND instruction *)
let sand_semantics () =
  (* left false fires without the right operand (whose producer never
     fires here) *)
  let b =
    {
      B.name = "sand1";
      instrs =
        [|
          I.make ~id:0 ~opcode:O.Movi ~imm:0L
            ~targets:[ T.To_instr { id = 3; slot = T.Left } ] ();
          I.make ~id:1 ~opcode:O.Movi ~imm:0L
            ~targets:[ T.To_instr { id = 2; slot = T.Left } ] ();
          (* right producer predicated on a predicate that never matches *)
          I.make ~id:2 ~opcode:(O.Tsti O.Eq) ~imm:0L
            ~targets:[ T.To_instr { id = 4; slot = T.Pred } ] ();
          I.make ~id:3 ~opcode:O.Sand
            ~targets:[ T.To_write 0 ] ();
          I.make ~id:4 ~opcode:O.Movi ~pred:I.If_false ~imm:9L
            ~targets:[ T.To_instr { id = 3; slot = T.Right } ] ();
          I.make ~id:5 ~opcode:O.Halt ();
        |];
      reads = [||];
      writes = [| { B.wslot = 0; wreg = 9 } |];
      store_lsids = [];
      exits = [| B.halt_exit |];
    }
  in
  let regs, _, _, r = run_one b in
  (match r with
  | Ok o -> check "no fault" true (o.Edge_sim.Functional.faulted = None)
  | Error e -> Alcotest.failf "%s" e);
  check "short-circuited to false" true (regs.(9) = 0L)

let sand_conjunction () =
  List.iter
    (fun (l, rv, expect) ->
      let b =
        {
          B.name = "sand2";
          instrs =
            [|
              I.make ~id:0 ~opcode:O.Movi ~imm:l
                ~targets:[ T.To_instr { id = 2; slot = T.Left } ] ();
              I.make ~id:1 ~opcode:O.Movi ~imm:rv
                ~targets:[ T.To_instr { id = 2; slot = T.Right } ] ();
              I.make ~id:2 ~opcode:O.Sand ~targets:[ T.To_write 0 ] ();
              I.make ~id:3 ~opcode:O.Halt ();
            |];
          reads = [||];
          writes = [| { B.wslot = 0; wreg = 9 } |];
          store_lsids = [];
          exits = [| B.halt_exit |];
        }
      in
      let regs, _, _, r = run_one b in
      (match r with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s" e);
      check (Printf.sprintf "sand %Ld %Ld" l rv) true (regs.(9) = expect))
    [ (1L, 1L, 1L); (1L, 0L, 0L); (0L, 1L, 0L); (0L, 0L, 0L) ]

let sand_filters_right_exception () =
  (* left false + excepting right: C semantics say the right is never
     evaluated, so the exception must not surface *)
  let b =
    {
      B.name = "sand3";
      instrs =
        [|
          I.make ~id:0 ~opcode:O.Movi ~imm:0L
            ~targets:[ T.To_instr { id = 3; slot = T.Left } ] ();
          I.make ~id:1 ~opcode:O.Movi ~imm:3999L
            ~targets:[ T.To_instr { id = 2; slot = T.Left } ] ();
          I.make ~id:2 ~opcode:(O.Ld O.W8) ~lsid:0
            ~targets:[ T.To_instr { id = 3; slot = T.Right } ] ();
          I.make ~id:3 ~opcode:O.Sand ~targets:[ T.To_write 0 ] ();
          I.make ~id:4 ~opcode:O.Halt ();
        |];
      reads = [||];
      writes = [| { B.wslot = 0; wreg = 9 } |];
      store_lsids = [];
      exits = [| B.halt_exit |];
    }
  in
  let _, _, _, r = run_one b in
  match r with
  | Ok o ->
      (* note: the excepting load may or may not have fired before the
         sand; either way the committed write must be exception-free *)
      check "no fault (right filtered)" true (o.Edge_sim.Functional.faulted = None)
  | Error e -> Alcotest.failf "%s" e

(* Stats.add must accumulate every counter; the parallel harness relies
   on it to merge per-domain statistics. *)
let stats_accumulate () =
  let module S = Edge_sim.Stats in
  let a = S.create () and b = S.create () in
  a.S.cycles <- 10;
  a.S.blocks_executed <- 3;
  a.S.instrs_executed <- 40;
  a.S.moves_executed <- 7;
  a.S.dcache_accesses <- 5;
  b.S.cycles <- 32;
  b.S.blocks_executed <- 4;
  b.S.blocks_flushed <- 2;
  b.S.instrs_executed <- 60;
  b.S.branch_mispredicts <- 1;
  b.S.dcache_misses <- 2;
  S.add a b;
  check "cycles" true (a.S.cycles = 42);
  check "blocks executed" true (a.S.blocks_executed = 7);
  check "blocks flushed" true (a.S.blocks_flushed = 2);
  check "instrs executed" true (a.S.instrs_executed = 100);
  check "moves" true (a.S.moves_executed = 7);
  check "mispredicts" true (a.S.branch_mispredicts = 1);
  check "dcache accesses" true (a.S.dcache_accesses = 5);
  check "dcache misses" true (a.S.dcache_misses = 2);
  (* b is the source and must be untouched *)
  check "source untouched" true (b.S.cycles = 32);
  (* adding a zero stats is the identity *)
  S.add a (S.create ());
  check "zero identity" true (a.S.cycles = 42 && a.S.instrs_executed = 100)

(* exit predictor: cold, then trained, and stable under repeated
   training (the backends count mispredictions in [Stats]) *)
let predictor_update_mispredict () =
  let module P = Edge_sim.Predictor in
  let p = P.create () in
  check "cold" true (P.predict p ~block:"loop" = None);
  P.update p ~block:"loop" ~exit_idx:0 ~target:"body";
  check "learned" true (P.predict p ~block:"loop" = Some "body");
  (* repeated training with the same history must stay stable *)
  P.update p ~block:"loop" ~exit_idx:0 ~target:"body";
  check "stable" true (P.predict p ~block:"loop" = Some "body")

(* cache: write-allocate, flush, and that hits don't evict *)
let cache_eviction_flush () =
  let module C = Edge_sim.Cache in
  let c = C.create ~size_bytes:1024 ~ways:2 ~line_bytes:64 ~hit_latency:2 in
  check "latency" true (C.hit_latency c = 2);
  (* write miss allocates the line (write-allocate) *)
  check "write cold miss" false (C.access c ~addr:256L ~write:true);
  check "read hits written line" true (C.access c ~addr:300L ~write:false);
  (* 8 sets: 0, 512, 1024 share set 0 in a 2-way cache. Touching the
     older line keeps it most-recently-used, so the third address must
     evict the other way. *)
  ignore (C.access c ~addr:0L ~write:false);
  ignore (C.access c ~addr:512L ~write:false);
  ignore (C.access c ~addr:0L ~write:false);
  ignore (C.access c ~addr:1024L ~write:false);
  check "mru survives eviction" true (C.access c ~addr:0L ~write:false);
  check "lru evicted" false (C.access c ~addr:512L ~write:false);
  C.flush c;
  check "flush empties" false (C.access c ~addr:0L ~write:false)

(* the clock-stamp LRU cache [Cache] replaced: every set allocated up
   front with a tag and a last-use stamp per way; a miss evicts the
   lowest stamp, the lowest way among equals *)
module Stamp_cache = struct
  type t = {
    sets : int;
    tags : int array array;
    lru : int array array;
    mutable clock : int;
  }

  let create ~sets ~ways =
    {
      sets;
      tags = Array.init sets (fun _ -> Array.make ways (-1));
      lru = Array.init sets (fun _ -> Array.make ways 0);
      clock = 0;
    }

  let access t ~line =
    t.clock <- t.clock + 1;
    let tags = t.tags.(line mod t.sets) and lru = t.lru.(line mod t.sets) in
    let hit = ref false in
    Array.iteri
      (fun w tag ->
        if tag = line then begin
          hit := true;
          lru.(w) <- t.clock
        end)
      tags;
    if not !hit then begin
      let victim = ref 0 in
      Array.iteri (fun w s -> if s < lru.(!victim) then victim := w) lru;
      tags.(!victim) <- line;
      lru.(!victim) <- t.clock
    end;
    !hit

  let flush t = Array.iter (fun a -> Array.fill a 0 (Array.length a) (-1)) t.tags
end

(* random address streams, with a flush halfway, give the same hit/miss
   sequence on the cache and the stamp model for every geometry *)
let cache_vs_stamp_lru () =
  let module C = Edge_sim.Cache in
  let seed = ref 0x5EED in
  let rand bound =
    seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
    (!seed lsr 4) mod bound
  in
  List.iter
    (fun ways ->
      List.iter
        (fun sets ->
          let c =
            C.create ~size_bytes:(sets * ways * 64) ~ways ~line_bytes:64
              ~hit_latency:1
          in
          let m = Stamp_cache.create ~sets ~ways in
          (* a footprint of three cache sizes: hits, misses and evictions *)
          let span = 3 * sets * ways * 64 in
          let got = ref [] and want = ref [] in
          for i = 1 to 3000 do
            if i = 1500 then begin
              C.flush c;
              Stamp_cache.flush m
            end;
            let addr = rand span in
            got := C.access c ~addr:(Int64.of_int addr) ~write:(i land 1 = 0) :: !got;
            want := Stamp_cache.access m ~line:(addr / 64) :: !want
          done;
          Alcotest.(check (list bool))
            (Printf.sprintf "%d ways x %d sets" ways sets)
            !want !got)
        [ 1; 2; 3; 5; 16; 64 ])
    [ 1; 2; 4; 8 ]

(* one fault rule: a faulting load feeding both W0 and store LSID 1
   raises two exceptional outputs; every path names the first in
   commit order (stores by LSID, then writes, then the branch) *)
let two_fault_block () =
  let b =
    {
      B.name = "twofault";
      instrs =
        [|
          (* misaligned: the load faults *)
          I.make ~id:0 ~opcode:O.Movi ~imm:3999L
            ~targets:[ T.To_instr { id = 1; slot = T.Left } ] ();
          I.make ~id:1 ~opcode:(O.Ld O.W8) ~lsid:0
            ~targets:[ T.To_write 0; T.To_instr { id = 3; slot = T.Right } ]
            ();
          I.make ~id:2 ~opcode:O.Movi ~imm:64L
            ~targets:[ T.To_instr { id = 3; slot = T.Left } ] ();
          I.make ~id:3 ~opcode:(O.St O.W8) ~lsid:1 ();
          I.make ~id:4 ~opcode:O.Halt ();
        |];
      reads = [||];
      writes = [| { B.wslot = 0; wreg = 9 } |];
      store_lsids = [ 1 ];
      exits = [| B.halt_exit |];
    }
  in
  List.iter
    (fun (path, r) ->
      match r with
      | Error e -> Alcotest.(check string) path "fault: store lsid 1" e
      | Ok _ -> Alcotest.failf "%s: the two-fault block must fault" path)
    (on_all_paths b)

(* a [sand] is a test instruction on every path *)
let sand_counts_as_test () =
  let b =
    {
      B.name = "sandtest";
      instrs =
        [|
          I.make ~id:0 ~opcode:O.Movi ~imm:1L
            ~targets:[ T.To_instr { id = 2; slot = T.Left } ] ();
          I.make ~id:1 ~opcode:O.Movi ~imm:1L
            ~targets:[ T.To_instr { id = 2; slot = T.Right } ] ();
          I.make ~id:2 ~opcode:O.Sand ~targets:[ T.To_write 0 ] ();
          I.make ~id:3 ~opcode:O.Halt ();
        |];
      reads = [||];
      writes = [| { B.wslot = 0; wreg = 9 } |];
      store_lsids = [];
      exits = [| B.halt_exit |];
    }
  in
  List.iter
    (fun (path, r) ->
      match r with
      | Ok s ->
          Alcotest.(check int) (path ^ " tests") 1 s.Edge_sim.Stats.tests_executed
      | Error e -> Alcotest.failf "%s: %s" path e)
    (on_all_paths b)

(* the one byte overlay behind store-to-load forwarding on every path *)
let overlay_bytes () =
  let module Df = Edge_sim.Dataflow in
  let a = 64L in
  let mem_tok = Tok.of_int64 0x0807060504030201L in
  let st ?(exc = false) width off value =
    { Df.addr = Int64.add a (Int64.of_int off); value; width; exc }
  in
  let load ?(width = O.W8) ?(mem = mem_tok) stores =
    Df.overlay ~width ~addr:a mem stores
  in
  let value name expect stores =
    let t = load stores in
    Alcotest.(check int64) name expect t.Tok.payload;
    check (name ^ ": no exception") false t.Tok.exc
  in
  (* W1 stores replace one byte wherever they land in the W8 load *)
  value "W1 at +0" 0x08070605040302AAL [ st O.W1 0 0xAAL ];
  value "W1 at +3" 0x08070605AA030201L [ st O.W1 3 0xAAL ];
  value "W1 at +7" 0xAA07060504030201L [ st O.W1 7 0xAAL ];
  (* W4 stores inside the load, and straddling either edge of it *)
  value "W4 at +4" 0xDDCCBBAA04030201L [ st O.W4 4 0xDDCCBBAAL ];
  value "W4 at -2" 0x080706050403DDCCL [ st O.W4 (-2) 0xDDCCBBAAL ];
  value "W4 at +6" 0xBBAA060504030201L [ st O.W4 6 0xDDCCBBAAL ];
  value "W4 at +8 misses" 0x0807060504030201L [ st O.W4 8 0xDDCCBBAAL ];
  (* stores apply oldest first: the younger W1 wins its byte *)
  value "W4 then W1" 0x0807060544EE2211L
    [ st O.W4 0 0x44332211L; st O.W1 2 0xEEL ];
  value "W1 then W4" 0x0807060544332211L
    [ st O.W1 2 0xEEL; st O.W4 0 0x44332211L ];
  (* sub-word loads sign-extend the overlaid bytes *)
  let zero = Tok.of_int64 0L in
  let sub name width expect stores =
    Alcotest.(check int64) name expect (load ~width ~mem:zero stores).Tok.payload
  in
  sub "W1 negative" O.W1 0xFFFFFFFFFFFFFF80L [ st O.W1 0 0x80L ];
  sub "W1 positive" O.W1 0x7FL [ st O.W1 0 0x7FL ];
  sub "W4 negative" O.W4 0xFFFFFFFF80000000L [ st O.W4 0 0x80000000L ];
  sub "W4 positive" O.W4 0x7FFFFFFFL [ st O.W4 0 0x7FFFFFFFL ];
  sub "W1 into W4 high byte" O.W4 0xFFFFFFFF90000000L [ st O.W1 3 0x90L ];
  (* an exceptional store taints the load only if it covers a loaded
     byte *)
  check "overlapping exception taints" true
    (load [ st ~exc:true O.W1 5 0x11L ]).Tok.exc;
  check "straddling exception taints" true
    (load [ st ~exc:true O.W4 (-3) 0x11L ]).Tok.exc;
  let t = load [ st ~exc:true O.W4 8 0x11L; st ~exc:true O.W8 (-8) 0x22L ] in
  check "disjoint exception ignored" false t.Tok.exc;
  Alcotest.(check int64) "disjoint stores ignored" 0x0807060504030201L
    t.Tok.payload;
  (* an exceptional memory read is returned untouched *)
  check "memory exception kept" true
    (load ~mem:(Tok.with_exc zero) [ st O.W1 0 0x11L ]).Tok.exc

(* a load sees only its own frame's stores below its LSID *)
let overlay_lsid_order () =
  let module Df = Edge_sim.Dataflow in
  let b =
    {
      B.name = "lsids";
      instrs =
        [|
          I.make ~id:0 ~opcode:(O.St O.W1) ~lsid:0 ();
          I.make ~id:1 ~opcode:(O.Ld O.W8) ~lsid:1 ();
          I.make ~id:2 ~opcode:(O.St O.W1) ~lsid:2 ();
          I.make ~id:3 ~opcode:O.Halt ();
        |];
      reads = [||];
      writes = [||];
      store_lsids = [ 0; 2 ];
      exits = [| B.halt_exit |];
    }
  in
  let img = Edge_sim.Block_image.of_block b in
  let df = Df.for_block img in
  Df.prepare df img ~stats:(Edge_sim.Stats.create ());
  let stored off value =
    Df.Stored { Df.addr = Int64.of_int (64 + off); value; width = O.W1; exc = false }
  in
  (* the younger store resolves first and must stay invisible *)
  Df.resolve_store df 2 (stored 1 0xBBL);
  check "lower store unresolved" false (Df.lower_resolved df 1);
  Df.resolve_store df 0 (stored 0 0xAAL);
  check "lower store resolved" true (Df.lower_resolved df 1);
  let stores = Df.stores_below df 1 in
  Alcotest.(check int) "one store below LSID 1" 1 (List.length stores);
  let t = Df.overlay ~width:O.W8 ~addr:64L (Tok.of_int64 0L) stores in
  Alcotest.(check int64) "higher LSID invisible" 0xAAL t.Tok.payload

(* in-order cycles of every example kernel under [machine], in
   kernel x (BB, Hyper, Both) order *)
let inorder_cycles machine =
  let module G = Test_support.Goldens in
  let m = Result.get_ok (Edge_sim.Machine.of_compact machine) in
  List.concat_map
    (fun kernel ->
      List.map
        (fun config ->
          match
            Edge_harness.Tracekit.trace_source ~machine:m
              ~level:Edge_obs.Trace.Blocks ~source:(G.kernel_source kernel)
              ~config ()
          with
          | Ok t -> t.Edge_harness.Tracekit.stats.Edge_sim.Stats.cycles
          | Error e -> Alcotest.failf "%s under %s: %s" kernel machine e)
        Dfp.Config.[ bb; hyper_baseline; both ])
    G.kernels

(* The [inorder_edge] preset issues one instruction per cycle from a
   16-entry window, so neither the Figure 7 counts nor the in-order
   goldens exercise wider issue or a tight window gate: pin both *)
let inorder_wide_issue () =
  List.iter
    (fun (machine, expect) ->
      Alcotest.(check (list int)) machine expect (inorder_cycles machine))
    [
      ( "inorder_edge;issue=2",
        [ 689; 351; 344; 1204; 1145; 882; 1201; 1345; 1014;
          2658; 2402; 1765; 1354; 1946; 1668 ] );
      ( "inorder_edge;issue=3;window=8",
        [ 689; 350; 344; 1187; 1116; 860; 1192; 1398; 1064;
          2612; 2318; 1691; 1339; 1938; 1656 ] );
      ( "inorder_edge;window=1",
        [ 692; 357; 346; 1378; 1436; 1203; 1231; 1568; 1234;
          2903; 2976; 2671; 1429; 2132; 1849 ] );
    ]

(* the window ring is sized by the largest block, not the machine: a
   window wider than any block gates nothing and allocates nothing *)
let inorder_huge_window () =
  Alcotest.(check (list int)) "window = max_int"
    (inorder_cycles
       (Printf.sprintf "inorder_edge;window=%d" Edge_isa.Block.max_instrs))
    (inorder_cycles (Printf.sprintf "inorder_edge;window=%d" max_int))

(* grid runs of every example kernel under [machine], in kernel x (BB,
   Hyper, Both) order, on the uninstrumented path the sweeps take; the
   15 compiles are shared by every machine *)
let grid_compiled =
  lazy
    (let module G = Test_support.Goldens in
     List.concat_map
       (fun kernel ->
         List.map
           (fun config ->
             match
               Edge_harness.Tracekit.compile_source (G.kernel_source kernel) config
             with
             | Ok c -> (kernel, c)
             | Error e -> Alcotest.failf "%s: %s" kernel e)
           Dfp.Config.[ bb; hyper_baseline; both ])
       G.kernels)

let grid_stats machine =
  let module Tk = Edge_harness.Tracekit in
  let m = Result.get_ok (Edge_sim.Machine.of_compact machine) in
  List.map
    (fun (kernel, (c : Dfp.Driver.compiled)) ->
      match
        Edge_sim.Backend.run ~machine:m ~placement:(Tk.placement c)
          c.Dfp.Driver.program ~regs:(Tk.default_regs ()) ~mem:(Tk.default_mem ())
      with
      | Ok s -> s
      | Error e -> Alcotest.failf "%s under %s: %s" kernel machine e)
    (Lazy.force grid_compiled)

(* a program imaged twice gets the same image object, from the
   one-entry memo, and a copy that differs in one instruction gets an
   image of its own *)
let image_memo () =
  let module Bi = Edge_sim.Block_image in
  let p = (snd (List.hd (Lazy.force grid_compiled))).Dfp.Driver.program in
  let img = Bi.of_program p in
  Alcotest.(check bool) "same program, same image" true (Bi.of_program p == img);
  let edited = ref None in
  let blocks =
    List.map
      (fun (name, (b : B.t)) ->
        let edit (i : I.t) =
          if !edited <> None then i
          else begin
            edited := Some (name, i.I.id);
            { i with I.imm = Int64.succ i.I.imm }
          end
        in
        (name, { b with B.instrs = Array.map edit b.B.instrs }))
      p.Edge_isa.Program.blocks
  in
  let name, id = Option.get !edited in
  let imm (img : Bi.program) =
    let bi = img.Bi.blocks.(Option.get (Bi.find_index img name)) in
    bi.Bi.instrs.(id).Bi.imm
  in
  let img' = Bi.of_program { p with Edge_isa.Program.blocks } in
  Alcotest.(check int64) "the copy's image" (Int64.succ (imm img)) (imm img');
  Alcotest.(check int64) "the program's image again" (imm img) (imm (Bi.of_program p))

(* Figure 7 runs only the [trips_grid] preset, so nothing else pins the
   grid on a memory latency past the event wheel's 1,024-cycle horizon,
   one or 32 blocks in flight, conservative loads, no early termination
   or a larger array. Per machine: the 15 cycle counts and the md5 of
   every run's full [Stats] *)
let grid_machines_pinned () =
  List.iter
    (fun (machine, cycles, digest) ->
      let stats = grid_stats machine in
      Alcotest.(check (list int))
        (machine ^ " cycles") cycles
        (List.map (fun s -> s.Edge_sim.Stats.cycles) stats);
      Alcotest.(check string)
        (machine ^ " stats") digest
        (Digest.to_hex
           (Digest.string
              (String.concat "\n"
                 (List.map (Format.asprintf "%a" Edge_sim.Stats.pp) stats)))))
    [
      ( "trips_grid;memlat=3000",
        [ 15194; 9133; 9119; 21588; 24355; 15235; 21621; 30483; 21320;
          31166; 49522; 33879; 21653; 45919; 39723 ],
        "e445add9bd284371f36a991d3d4b9a51" );
      ( "inflight=1",
        [ 594; 373; 359; 1351; 1221; 796; 1313; 1296; 925;
          3231; 2893; 1865; 1601; 2187; 1827 ],
        "8a94a687da35c217232412e5d9ca5649" );
      ( "inflight=32",
        [ 594; 373; 359; 1148; 995; 635; 1181; 1283; 880;
          1853; 2802; 1760; 1199; 2119; 1763 ],
        "10fd6f7f6bce79225be9caea2818d809" );
      ( "aggr=false",
        [ 594; 373; 359; 1148; 995; 635; 1181; 1498; 1109;
          1966; 2802; 1759; 1213; 2119; 1763 ],
        "9a2b3ffb87358e3a1c32a0eea31200e1" );
      ( "early=false",
        [ 594; 373; 359; 1148; 995; 635; 1181; 1283; 880;
          1966; 2802; 1759; 1213; 2119; 1763 ],
        "56aa1cbb87b7a7ec8e0d65eb09cd8055" );
      ( "rows=8;cols=8",
        [ 594; 385; 373; 1151; 1036; 639; 1181; 1327; 908;
          1984; 3393; 1904; 1221; 2255; 1886 ],
        "317e7b1199bc71f6f9ab98dc64ea96c7" );
    ]

(* an absorbed predicate closes a static cycle between two fired
   instructions (I2 feeds I3, whose false test reaches I2's predicate
   after I2 fired on I1's); every path must still finish the block *)
let predicate_cycle () =
  let b = Test_support.Judge_pins.pcycle in
  List.iter
    (fun (path, r) ->
      match r with Ok _ -> () | Error e -> Alcotest.failf "%s: %s" path e)
    (on_all_paths b)

let tests =


  [
    Alcotest.test_case "predicate OR" `Quick predicate_or;
    Alcotest.test_case "double match rejected" `Quick double_match_rejected;
    Alcotest.test_case "null write" `Quick null_write;
    Alcotest.test_case "null store + lsid order" `Quick null_store_and_lsid_order;
    Alcotest.test_case "store forwarding" `Quick store_forwarding;
    Alcotest.test_case "exception filtered (4.4)" `Quick exception_filtered;
    Alcotest.test_case "exception raises" `Quick exception_raises;
    Alcotest.test_case "deadlock diagnosed" `Quick deadlock_diagnosed;
    Alcotest.test_case "cache behaviour" `Quick cache_behaviour;
    Alcotest.test_case "predictor learns" `Quick predictor_learns;
    Alcotest.test_case "early termination ablation" `Quick early_termination_ablation;
    Alcotest.test_case "exc predicate as false (4.4)" `Quick exc_predicate_as_false;
    Alcotest.test_case "inter-block register forwarding" `Quick interblock_forwarding;
    Alcotest.test_case "inter-block store-to-load" `Quick interblock_store_to_load;
    Alcotest.test_case "watchdog fires" `Quick watchdog_fires;
    Alcotest.test_case "stats sanity" `Quick stats_sanity;
    Alcotest.test_case "sand short-circuit (7)" `Quick sand_semantics;
    Alcotest.test_case "sand conjunction" `Quick sand_conjunction;
    Alcotest.test_case "sand filters right exception" `Quick
      sand_filters_right_exception;
    Alcotest.test_case "stats accumulate" `Quick stats_accumulate;
    Alcotest.test_case "predictor update/mispredict" `Quick
      predictor_update_mispredict;
    Alcotest.test_case "cache eviction + flush" `Quick cache_eviction_flush;
    Alcotest.test_case "cache vs stamp LRU" `Quick cache_vs_stamp_lru;
    Alcotest.test_case "two-fault block, all paths" `Quick two_fault_block;
    Alcotest.test_case "sand counts as a test, all paths" `Quick
      sand_counts_as_test;
    Alcotest.test_case "overlay bytes" `Quick overlay_bytes;
    Alcotest.test_case "overlay LSID order" `Quick overlay_lsid_order;
    Alcotest.test_case "in-order wide issue pinned" `Quick inorder_wide_issue;
    Alcotest.test_case "in-order window wider than any block" `Quick
      inorder_huge_window;
    Alcotest.test_case "grid machines pinned" `Quick grid_machines_pinned;
    Alcotest.test_case "image memo by identity" `Quick image_memo;
    Alcotest.test_case "predicate cycle, all paths" `Quick predicate_cycle;
  ]
