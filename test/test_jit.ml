(* Functional-vs-backends differential property.

   The functional simulator delivers tokens depth-first, straight into
   their consumers; the grid drives the same dataflow core from an
   event wheel in timing order; the in-order core reruns the functional
   engine under its own schedule. Block firing is confluent, so all
   three must commit the same architectural state. Every corpus kernel
   and 50 fixed-seed generated kernels are compiled under every oracle
   configuration and run on the functional simulator, the tiled grid
   ([Machine.trips_grid]) and the in-order core ([Machine.inorder_edge]);
   the runs must agree exactly on the return value, the final memory
   image and the committed-store count, and on the error text when any
   path faults.

   The group keeps its historical [jit] name. Two extra cases cover
   corners the sweep misses: a hand-built block with the widest legal
   entry fanout, and a [DFP_ARENA_DEBUG] cycle-simulator run checked
   against the functional simulator, so the arena cross-check and the
   functional verification are exercised together, down to identical
   fault text. *)

module Fz = Edge_fuzz
module Conv = Edge_isa.Conventions
module I = Edge_isa.Instr
module T = Edge_isa.Target
module O = Edge_isa.Opcode
module B = Edge_isa.Block
module Machine = Edge_sim.Machine

type outcome = {
  ret : int64;
  mem : Edge_isa.Mem.t;
  stores : int;
  error : string option;
}

type runner =
  Edge_isa.Program.t ->
  regs:int64 array ->
  mem:Edge_isa.Mem.t ->
  (Edge_sim.Stats.t, string) result

let run_path (run : runner) (program : Edge_isa.Program.t) : outcome =
  let regs = Array.make Conv.num_regs 0L in
  List.iteri (fun i v -> regs.(Conv.param_reg i) <- v) Edge_harness.Tracekit.default_args;
  let mem = Edge_harness.Tracekit.default_mem () in
  match run program ~regs ~mem with
  | Ok _ ->
      {
        ret = regs.(Conv.result_reg);
        mem;
        stores = Edge_isa.Mem.store_count mem;
        error = None;
      }
  | Error e -> { ret = 0L; mem; stores = 0; error = Some e }

let placement_of (c : Dfp.Driver.compiled) n =
  match List.assoc_opt n c.Dfp.Driver.placements with
  | Some p -> p
  | None -> [||]

(* the two timing backends, each on its preset machine *)
let backends (c : Dfp.Driver.compiled) : (string * runner) list =
  List.map
    (fun (name, machine) ->
      ( name,
        fun p ~regs ~mem ->
          Edge_sim.Backend.run ~machine ~placement:(placement_of c) p ~regs
            ~mem ))
    [ ("grid", Machine.trips_grid); ("in-order", Machine.inorder_edge) ]

let check_agree ~label ~path (reference : outcome) (r : outcome) =
  match (reference.error, r.error) with
  | Some ef, Some e ->
      (* both fail: the diagnostic must not depend on the executor *)
      Alcotest.(check string) (label ^ ": " ^ path ^ " error text") ef e
  | Some e, None ->
      Alcotest.failf "%s: only the functional simulator errored: %s" label e
  | None, Some e -> Alcotest.failf "%s: only the %s errored: %s" label path e
  | None, None ->
      Alcotest.(check int64)
        (label ^ ": " ^ path ^ " return value")
        reference.ret r.ret;
      if not (Edge_isa.Mem.equal reference.mem r.mem) then
        Alcotest.failf "%s: %s memory image differs" label path;
      Alcotest.(check int)
        (label ^ ": " ^ path ^ " committed stores")
        reference.stores r.stores

let check_kernel ~label (ast : Edge_lang.Ast.kernel) =
  List.iter
    (fun (cname, config) ->
      match Fz.Oracle.compile ast config with
      | Error e -> Alcotest.failf "%s/%s: %s" label cname e
      | Ok compiled ->
          let program = compiled.Dfp.Driver.program in
          let label = Printf.sprintf "%s/%s" label cname in
          let reference = run_path Edge_sim.Functional.run program in
          List.iter
            (fun (path, run) ->
              check_agree ~label ~path reference (run_path run program))
            (backends compiled))
    Fz.Oracle.configs

let corpus_case (name, src) =
  Alcotest.test_case ("jit corpus " ^ name) `Quick (fun () ->
      match Edge_lang.Parser.parse src with
      | Error e -> Alcotest.failf "%s: parse: %s" name e
      | Ok ast -> check_kernel ~label:name ast)

(* seeds far from test_diff's (1..), test_fuzz's (10_000..) and
   test_arena's (20_000..) *)
let generated () =
  for i = 0 to 49 do
    let seed = 30_000 + i in
    let size = Fz.Gen.size_for ~min_size:6 ~max_size:24 i in
    check_kernel
      ~label:(Printf.sprintf "seed %d size %d" seed size)
      (Fz.Gen.generate ~seed ~size)
  done

(* Widest-possible entry fanout: 32 register reads with 2 targets each,
   every pair completing an add, plus a 0-operand seed. Depth-first
   delivery fires each add inside its read's fanout loop; the grid
   spreads the same tokens over the operand network. All three paths
   must commit the same values. *)
let wide_fanout () =
  (* ids: 0 = Movi seed, 1..31 = adds (read i-1 + itself), 32 = store
     fed by read 31, 33 = halt *)
  let instrs =
    Array.init 34 (fun id ->
        if id = 0 then
          I.make ~id ~opcode:O.Movi ~imm:5L ~targets:[ T.To_write 31 ] ()
        else if id <= 31 then
          I.make ~id ~opcode:(O.Iop O.Add)
            ~targets:[ T.To_write (id - 1) ]
            ()
        else if id = 32 then I.make ~id ~opcode:(O.St O.W8) ~lsid:0 ()
        else I.make ~id ~opcode:O.Halt ())
  in
  let reads =
    Array.init 32 (fun i ->
        let dest = if i < 31 then i + 1 else 32 in
        {
          B.rslot = i;
          reg = 2 + i;
          rtargets =
            [
              T.To_instr { id = dest; slot = T.Left };
              T.To_instr { id = dest; slot = T.Right };
            ];
        })
  in
  let writes = Array.init 32 (fun w -> { B.wslot = w; wreg = 64 + w }) in
  let b =
    {
      B.name = "wide";
      instrs;
      reads;
      writes;
      store_lsids = [ 0 ];
      exits = [| B.halt_exit |];
    }
  in
  let program =
    match Edge_isa.Program.make ~entry:"wide" [ b ] with
    | Ok p -> p
    | Error e -> Alcotest.failf "program: %s" e
  in
  (match Edge_isa.Program.validate program with
  | Ok () -> ()
  | Error es -> Alcotest.failf "invalid program: %s" (String.concat "; " es));
  List.iter
    (fun (path, (run : runner)) ->
      let regs = Array.make Conv.num_regs 0L in
      for i = 0 to 31 do
        regs.(2 + i) <- Int64.of_int (i + 100)
      done;
      (* read 31 feeds the store's address and value; 8-byte aligned *)
      regs.(2 + 31) <- 128L;
      let mem = Edge_isa.Mem.create ~size:4096 in
      (match run program ~regs ~mem with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "wide fanout (%s): %s" path e);
      (* add 5 computed read4 + read4 = 208 into write slot 4 *)
      Alcotest.(check int64)
        (path ^ ": fanned-out add committed")
        208L
        regs.(64 + 4);
      Alcotest.(check int64) (path ^ ": seed write committed") 5L regs.(64 + 31);
      Alcotest.(check int64)
        (path ^ ": store committed")
        128L
        (Edge_isa.Mem.load_int mem 128))
    [
      ("interpreter", Edge_sim.Functional.run);
      ("grid", fun p ~regs ~mem -> Edge_sim.Cycle_sim.run p ~regs ~mem);
      ("in-order", fun p ~regs ~mem -> Edge_sim.Inorder_sim.run p ~regs ~mem);
    ]

(* Arena cross-check against the functional simulator: DFP_ARENA_DEBUG
   makes the cycle simulator assert each recycled frame prefix is
   indistinguishable from fresh arrays, and the functional run provides
   the architectural reference. Registered last in the suite: putenv
   has no portable inverse, so the flag stays set for the rest of the
   process (it only adds assertions). *)
let arena_debug_cross_check () =
  Unix.putenv "DFP_ARENA_DEBUG" "1";
  List.iter
    (fun (name, src) ->
      match Edge_lang.Parser.parse src with
      | Error e -> Alcotest.failf "%s: parse: %s" name e
      | Ok ast -> (
          match Fz.Oracle.compile ast Dfp.Config.both with
          | Error e -> Alcotest.failf "%s: %s" name e
          | Ok compiled ->
              let program = compiled.Dfp.Driver.program in
              let placement = placement_of compiled in
              check_agree ~label:name ~path:"cycle sim"
                (run_path Edge_sim.Functional.run program)
                (run_path
                   (fun p ~regs ~mem ->
                     Edge_sim.Cycle_sim.run ~placement p ~regs ~mem)
                   program)))
    (Fz.Corpus.load_dir "corpus")

let tests =
  List.map corpus_case (Fz.Corpus.load_dir "corpus")
  @ [
      Alcotest.test_case "jit 50 fixed seeds" `Quick generated;
      Alcotest.test_case "wide fanout grows the token ring" `Quick wide_fanout;
      Alcotest.test_case "arena debug cross-check with jit" `Quick
        arena_debug_cross_check;
    ]
