(* JIT-vs-interpreter differential property.

   The threaded-code block JIT ([Edge_sim.Block_jit]) is a pure
   execution strategy for the functional simulator: it must be
   observationally identical to the reference token-pushing
   interpreter. Every corpus kernel and 50 fixed-seed generated
   kernels are compiled under every oracle configuration and run
   twice — once through the JIT (the default) and once through the
   interpreter ([~jit:false]) — and the two runs must agree exactly on
   the return value, the final memory image, the committed-store
   count, every [Stats] counter, and the error text when either
   faults.

   Two extra cases cover the corners the sweep misses: a hand-built
   block whose entry fanout overflows the interpreter's pending-token
   FIFO ring (initial capacity 64, must grow), and a
   [DFP_ARENA_DEBUG] cycle-simulator run with the JIT enabled, so the
   arena cross-check and the JIT'd functional verification are
   exercised together, down to identical fault text. *)

module Fz = Edge_fuzz
module Conv = Edge_isa.Conventions
module I = Edge_isa.Instr
module T = Edge_isa.Target
module O = Edge_isa.Opcode
module B = Edge_isa.Block

type outcome = {
  ret : int64;
  mem : Edge_isa.Mem.t;
  stores : int;
  stats : Edge_sim.Stats.t option;
  error : string option;
}

let run_fsim ~jit (program : Edge_isa.Program.t) : outcome =
  let regs = Array.make Conv.num_regs 0L in
  List.iteri (fun i v -> regs.(Conv.param_reg i) <- v) Fz.Gen.default_args;
  let mem = Fz.Gen.default_mem () in
  match Edge_sim.Functional.run ~jit program ~regs ~mem with
  | Ok stats ->
      {
        ret = regs.(Conv.result_reg);
        mem;
        stores = Edge_isa.Mem.store_count mem;
        stats = Some stats;
        error = None;
      }
  | Error e -> { ret = 0L; mem; stores = 0; stats = None; error = Some e }

let check_agree ~label (jit : outcome) (interp : outcome) =
  match (jit.error, interp.error) with
  | Some ej, Some ei ->
      (* both fail: the diagnostic must not depend on the execution path *)
      Alcotest.(check string) (label ^ ": error text") ei ej
  | Some e, None | None, Some e ->
      Alcotest.failf "%s: only one execution path errored: %s" label e
  | None, None ->
      Alcotest.(check int64) (label ^ ": return value") interp.ret jit.ret;
      if not (Edge_isa.Mem.equal jit.mem interp.mem) then
        Alcotest.failf "%s: memory images differ" label;
      Alcotest.(check int)
        (label ^ ": committed stores")
        interp.stores jit.stores;
      if jit.stats <> interp.stats then
        Alcotest.failf "%s: stats differ:@.jit: %a@.interp: %a" label
          (Fmt.option Edge_sim.Stats.pp)
          jit.stats
          (Fmt.option Edge_sim.Stats.pp)
          interp.stats

let check_kernel ~label (ast : Edge_lang.Ast.kernel) =
  List.iter
    (fun (cname, config) ->
      match Fz.Oracle.compile ast config with
      | Error e -> Alcotest.failf "%s/%s: %s" label cname e
      | Ok compiled ->
          let program = compiled.Dfp.Driver.program in
          check_agree
            ~label:(Printf.sprintf "%s/%s" label cname)
            (run_fsim ~jit:true program)
            (run_fsim ~jit:false program))
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

(* Widest-possible entry fanout: the interpreter seeds all register
   read targets before draining any, so 32 reads x 2 targets queue 64
   pending tokens — exactly the FIFO ring's initial capacity — and the
   first 0-operand seed instruction's result is the 65th push, which
   forces the ring to grow mid-block. Regression for the ring's
   dynamic-growth path (a fixed-capacity ring drops or corrupts the
   overflowing delivery). *)
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
  let run ~jit =
    let regs = Array.make Conv.num_regs 0L in
    for i = 0 to 31 do
      regs.(2 + i) <- Int64.of_int (i + 100)
    done;
    (* read 31 feeds the store's address and value; 8-byte aligned *)
    regs.(2 + 31) <- 128L;
    let mem = Edge_isa.Mem.create ~size:4096 in
    match Edge_sim.Functional.run ~jit program ~regs ~mem with
    | Ok _ -> (regs, mem)
    | Error e -> Alcotest.failf "wide fanout (jit=%b): %s" jit e
  in
  let jregs, jmem = run ~jit:true in
  let iregs, imem = run ~jit:false in
  Alcotest.(check bool) "register files agree" true (jregs = iregs);
  if not (Edge_isa.Mem.equal jmem imem) then
    Alcotest.failf "wide fanout: memory images differ";
  (* add 5 computed read4 + read4 = 208 into write slot 4 *)
  Alcotest.(check int64) "fanned-out add committed" 208L iregs.(64 + 4);
  Alcotest.(check int64) "seed write committed" 5L iregs.(64 + 31);
  Alcotest.(check int64) "store committed" 128L (Edge_isa.Mem.load_int imem 128)

(* Arena cross-check and JIT together: DFP_ARENA_DEBUG makes the cycle
   simulator assert each recycled frame prefix is indistinguishable
   from fresh arrays, and the JIT'd functional run provides the
   architectural reference. Registered last in the suite: putenv has
   no portable inverse, so the flag stays set for the rest of the
   process (it only adds assertions). *)
let arena_debug_cross_check () =
  Unix.putenv "DFP_ARENA_DEBUG" "1";
  Alcotest.(check bool) "jit is the default" true
    (Edge_sim.Functional.jit_enabled ());
  List.iter
    (fun (name, src) ->
      match Edge_lang.Parser.parse src with
      | Error e -> Alcotest.failf "%s: parse: %s" name e
      | Ok ast -> (
          match Fz.Oracle.compile ast Dfp.Config.both with
          | Error e -> Alcotest.failf "%s: %s" name e
          | Ok compiled ->
              let program = compiled.Dfp.Driver.program in
              let fsim = run_fsim ~jit:true program in
              let regs = Array.make Conv.num_regs 0L in
              List.iteri
                (fun i v -> regs.(Conv.param_reg i) <- v)
                Fz.Gen.default_args;
              let mem = Fz.Gen.default_mem () in
              let placement n =
                match List.assoc_opt n compiled.Dfp.Driver.placements with
                | Some p -> p
                | None -> [||]
              in
              (match
                 ( Edge_sim.Cycle_sim.run ~placement program ~regs ~mem,
                   fsim.error )
               with
              | Error e, Some ej ->
                  (* program fault: both simulators commit through the
                     one dataflow core, so they name the same fault *)
                  Alcotest.(check string) (name ^ ": cycle vs jit error") ej e
              | Error e, None ->
                  Alcotest.failf "%s: only the cycle sim faulted: %s" name e
              | Ok _, Some e ->
                  Alcotest.failf "%s: only the jit faulted: %s" name e
              | Ok _, None ->
                  Alcotest.(check int64)
                    (name ^ ": cycle vs jit return")
                    fsim.ret
                    regs.(Conv.result_reg);
                  if not (Edge_isa.Mem.equal fsim.mem mem) then
                    Alcotest.failf "%s: cycle vs jit memory differs" name)))
    (Fz.Corpus.load_dir "corpus")

let tests =
  List.map corpus_case (Fz.Corpus.load_dir "corpus")
  @ [
      Alcotest.test_case "jit 50 fixed seeds" `Quick generated;
      Alcotest.test_case "wide fanout grows the token ring" `Quick wide_fanout;
      Alcotest.test_case "arena debug cross-check with jit" `Quick
        arena_debug_cross_check;
    ]
