module O = Edge_isa.Opcode
module I = Edge_isa.Instr
module T = Edge_isa.Target
module Tok = Edge_isa.Token
module B = Edge_isa.Block
module E = Edge_isa.Encode

let check = Alcotest.(check bool)

let opcode_roundtrip () =
  List.iter
    (fun op ->
      match O.of_mnemonic (O.mnemonic op) with
      | Some op' -> check (O.mnemonic op) true (O.equal op op')
      | None -> Alcotest.failf "mnemonic %s not parsed" (O.mnemonic op))
    O.all

let opcode_classes () =
  check "movi unpredicated producer" true (O.produces_value O.Movi);
  check "geni not predicatable" false (O.predicatable O.Geni);
  check "mov4 not predicatable" false (O.predicatable O.Mov4);
  check "store no targets" true (O.max_targets (O.St O.W8) = 0);
  check "imm forms have 1 target" true (O.max_targets (O.Iopi O.Add) = 1);
  check "reg forms have 2 targets" true (O.max_targets (O.Iop O.Add) = 2);
  check "mov4 has 4 targets" true (O.max_targets O.Mov4 = 4);
  check "div is slow" true (O.latency (O.Iop O.Div) > O.latency (O.Iop O.Add));
  (* the in-order scheduler relies on it: no issue readies another
     instruction in the same cycle *)
  check "every latency >= 1" true
    (List.for_all (fun o -> O.latency o >= 1) O.all);
  check "branches produce no value" false (O.produces_value O.Bro)

let target_roundtrip () =
  for id = 0 to 127 do
    List.iter
      (fun slot ->
        let t = T.To_instr { id; slot } in
        match T.decode (T.encode t) with
        | Some t' -> check "target" true (T.equal t t')
        | None -> Alcotest.fail "decode failed")
      [ T.Left; T.Right; T.Pred ]
  done;
  for w = 0 to 31 do
    let t = T.To_write w in
    match T.decode (T.encode t) with
    | Some t' -> check "write target" true (T.equal t t')
    | None -> Alcotest.fail "decode failed"
  done

let token_semantics () =
  check "true predicate" true (Tok.as_predicate Tok.true_predicate);
  check "false predicate" false (Tok.as_predicate Tok.false_predicate);
  check "even payload is false" false (Tok.as_predicate (Tok.of_int64 42L));
  check "odd payload is true" true (Tok.as_predicate (Tok.of_int64 7L));
  check "exception reads as false (4.4)" false
    (Tok.as_predicate (Tok.with_exc (Tok.of_int64 1L)));
  let t = Tok.taint (Tok.with_exc (Tok.of_int64 1L)) (Tok.of_int64 9L) in
  check "taint propagates exc" true t.Tok.exc;
  check "taint keeps payload" true (t.Tok.payload = 9L)

let pred_matching () =
  check "if_true matches true" true
    (I.predicate_matches I.If_true Tok.true_predicate);
  check "if_true rejects false" false
    (I.predicate_matches I.If_true Tok.false_predicate);
  check "if_false matches false" true
    (I.predicate_matches I.If_false Tok.false_predicate);
  check "unpredicated matches nothing" false
    (I.predicate_matches I.Unpredicated Tok.true_predicate);
  check "exc predicate matches if_false (4.4)" true
    (I.predicate_matches I.If_false (Tok.with_exc (Tok.of_int64 1L)))

let sample_instrs =
  [
    I.make ~id:3 ~opcode:(O.Tst O.Eq)
      ~targets:
        [ T.To_instr { id = 57; slot = T.Pred }; T.To_instr { id = 58; slot = T.Pred } ]
      ();
    I.make ~id:57 ~opcode:(O.Iopi O.Add) ~pred:I.If_true ~imm:2L
      ~targets:[ T.To_instr { id = 60; slot = T.Left } ]
      ();
    I.make ~id:58 ~opcode:(O.Iopi O.Add) ~pred:I.If_false ~imm:3L
      ~targets:[ T.To_instr { id = 60; slot = T.Left } ]
      ();
    I.make ~id:60 ~opcode:(O.Iopi O.Sll) ~imm:1L
      ~targets:[ T.To_write 0 ]
      ();
    I.make ~id:7 ~opcode:(O.Ld O.W8) ~imm:(-8L) ~lsid:2
      ~targets:[ T.To_instr { id = 60; slot = T.Left } ]
      ();
    I.make ~id:8 ~opcode:(O.St O.W4) ~imm:255L ~lsid:3 ();
    I.make ~id:9 ~opcode:O.Bro ~pred:I.If_false ~exit_idx:1 ();
    I.make ~id:10 ~opcode:O.Geni ~imm:0x1234_5678_9ABC_DEFFL
      ~targets:[ T.To_instr { id = 60; slot = T.Right } ]
      ();
    I.make ~id:11 ~opcode:O.Mov4
      ~targets:
        [
          T.To_instr { id = 57; slot = T.Pred };
          T.To_instr { id = 58; slot = T.Pred };
          T.To_instr { id = 60; slot = T.Pred };
        ]
      ();
    I.make ~id:12 ~opcode:O.Null ~pred:I.If_true
      ~targets:[ T.To_write 3 ]
      ();
  ]

let encode_roundtrip () =
  List.iter
    (fun i ->
      match E.encode i with
      | Error e -> Alcotest.failf "encode I%d: %s" i.I.id e
      | Ok words -> (
          check "word count" true (List.length words = E.words i);
          match E.decode ~id:i.I.id words with
          | Error e -> Alcotest.failf "decode I%d: %s" i.I.id e
          | Ok (i', rest) ->
              check "all words consumed" true (rest = []);
              if not (I.equal i i') then
                Alcotest.failf "roundtrip I%d: %a vs %a" i.I.id I.pp i I.pp i'))
    sample_instrs

let encode_rejects_wide_imm () =
  let i =
    I.make ~id:1 ~opcode:O.Movi ~imm:300L ~targets:[ T.To_write 0 ] ()
  in
  match E.encode i with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "300 must not fit a 9-bit immediate"

(* a tiny well-formed block: Figure 2 of the paper *)
let figure2_block () =
  {
    B.name = "fig2";
    instrs =
      [|
        I.make ~id:0 ~opcode:O.Movi ~imm:1L
          ~targets:[ T.To_instr { id = 2; slot = T.Left } ]
          ();
        I.make ~id:1 ~opcode:O.Movi ~imm:1L
          ~targets:[ T.To_instr { id = 2; slot = T.Right } ]
          ();
        I.make ~id:2 ~opcode:(O.Tst O.Eq)
          ~targets:
            [
              T.To_instr { id = 3; slot = T.Pred };
              T.To_instr { id = 4; slot = T.Pred };
            ]
          ();
        I.make ~id:3 ~opcode:(O.Iopi O.Add) ~pred:I.If_true ~imm:2L
          ~targets:[ T.To_instr { id = 5; slot = T.Left } ]
          ();
        I.make ~id:4 ~opcode:(O.Iopi O.Add) ~pred:I.If_false ~imm:3L
          ~targets:[ T.To_instr { id = 5; slot = T.Left } ]
          ();
        I.make ~id:5 ~opcode:(O.Iopi O.Sll) ~imm:1L ~targets:[ T.To_write 0 ] ();
        I.make ~id:6 ~opcode:O.Movi ~imm:7L
          ~targets:[ T.To_instr { id = 3; slot = T.Left } ]
          ();
        I.make ~id:7 ~opcode:O.Movi ~imm:7L
          ~targets:[ T.To_instr { id = 4; slot = T.Left } ]
          ();
        I.make ~id:8 ~opcode:O.Halt ();
      |];
    reads = [||];
    writes = [| { B.wslot = 0; wreg = 5 } |];
    store_lsids = [];
    exits = [| B.halt_exit |];
  }

let block_validate_ok () =
  match B.validate (figure2_block ()) with
  | Ok () -> ()
  | Error es -> Alcotest.failf "unexpected: %s" (String.concat "; " es)

let block_validate_catches () =
  let b = figure2_block () in
  (* break it: predicate delivered to an unpredicated instruction *)
  let bad =
    {
      b with
      B.instrs =
        Array.map
          (fun (i : I.t) ->
            if i.I.id = 2 then
              {
                i with
                I.targets = [ T.To_instr { id = 5; slot = T.Pred } ];
              }
            else i)
          b.B.instrs;
    }
  in
  (match B.validate bad with
  | Ok () -> Alcotest.fail "must reject predicate to unpredicated"
  | Error _ -> ());
  let no_branch =
    {
      b with
      B.instrs = Array.sub b.B.instrs 0 8;
    }
  in
  (match B.validate no_branch with
  | Ok () -> Alcotest.fail "must reject missing exit"
  | Error _ -> ());
  let too_many =
    { b with B.store_lsids = List.init 33 Fun.id }
  in
  match B.validate too_many with
  | Ok () -> Alcotest.fail "must reject 33 store lsids"
  | Error _ -> ()

let mem_semantics () =
  let m = Edge_isa.Mem.create ~size:256 in
  Edge_isa.Mem.store_int m 8 0x1122334455667788L;
  check "load w8" true (Edge_isa.Mem.load_int m 8 = 0x1122334455667788L);
  let t = Edge_isa.Mem.load m ~width:O.W1 ~addr:15L in
  check "byte sign extend" true (t.Tok.payload = 0x11L);
  Edge_isa.Mem.store_int m 16 0xFFL;
  let t = Edge_isa.Mem.load m ~width:O.W1 ~addr:16L in
  check "byte 0xff sign extends to -1" true (t.Tok.payload = -1L);
  let oob = Edge_isa.Mem.load m ~width:O.W8 ~addr:9999L in
  check "out of range sets exc" true oob.Tok.exc;
  let mis = Edge_isa.Mem.load m ~width:O.W8 ~addr:9L in
  check "misaligned sets exc" true mis.Tok.exc;
  check "oob store rejected" true
    (Edge_isa.Mem.store m ~width:O.W8 ~addr:9999L 1L = Error ())

let program_checks () =
  let b = figure2_block () in
  (match Edge_isa.Program.make ~entry:"fig2" [ b ] with
  | Ok p -> (
      match Edge_isa.Program.validate p with
      | Ok () -> ()
      | Error es -> Alcotest.failf "%s" (String.concat ";" es))
  | Error e -> Alcotest.failf "%s" e);
  (match Edge_isa.Program.make ~entry:"nope" [ b ] with
  | Ok _ -> Alcotest.fail "missing entry accepted"
  | Error _ -> ());
  match Edge_isa.Program.make ~entry:"fig2" [ b; b ] with
  | Ok _ -> Alcotest.fail "duplicate names accepted"
  | Error _ -> ()

let qcheck_target =
  QCheck.Test.make ~name:"target encode/decode" ~count:500
    QCheck.(pair (int_bound 127) (int_bound 3))
    (fun (id, s) ->
      let t =
        match s with
        | 0 -> T.To_instr { id; slot = T.Left }
        | 1 -> T.To_instr { id; slot = T.Right }
        | 2 -> T.To_instr { id; slot = T.Pred }
        | _ -> T.To_write (id land 31)
      in
      match T.decode (T.encode t) with
      | Some t' -> T.equal t t'
      | None -> false)

let qcheck_mem =
  QCheck.Test.make ~name:"mem store/load roundtrip" ~count:500
    QCheck.(pair (int_bound 30) int64)
    (fun (slot, v) ->
      let m = Edge_isa.Mem.create ~size:256 in
      let addr = Int64.of_int (slot * 8) in
      (match Edge_isa.Mem.store m ~width:O.W8 ~addr v with
      | Ok () -> ()
      | Error () -> failwith "store");
      (Edge_isa.Mem.load m ~width:O.W8 ~addr).Tok.payload = v)


(* assembler: the Block/Program printers round-trip through Asm.parse *)
let asm_roundtrip_block () =
  let b = figure2_block () in
  let text = Format.asprintf "%a" B.pp b in
  match Edge_isa.Asm.parse_block text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok b2 ->
      let text2 = Format.asprintf "%a" B.pp b2 in
      Alcotest.(check string) "roundtrip" text text2

let asm_hand_written () =
  let src =
    "program (entry main)\n\
     block main\n\
     \  R0  read g2 -> I0.L\n\
     \  I0   tlti #5 -> I1.L\n\
     \  I1   mov -> I2.P -> I3.P\n\
     \  I2   movi_t #10 -> W0\n\
     \  I3   movi_f #20 -> W0\n\
     \  I4   halt\n\
     \  W0  write g1\n"
  in
  match Edge_isa.Asm.parse_program src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok p ->
      (match Edge_isa.Program.validate p with
      | Ok () -> ()
      | Error es -> Alcotest.failf "%s" (String.concat "; " es));
      List.iter
        (fun (v, expect) ->
          let regs = Array.make 128 0L in
          regs.(2) <- v;
          let mem = Edge_isa.Mem.create ~size:64 in
          match Edge_sim.Functional.run p ~regs ~mem with
          | Ok _ -> check "asm semantics" true (regs.(1) = expect)
          | Error e -> Alcotest.failf "run: %s" e)
        [ (3L, 10L); (9L, 20L) ]

let asm_rejects () =
  List.iter
    (fun src ->
      match Edge_isa.Asm.parse_program src with
      | Ok _ -> Alcotest.failf "must reject: %s" src
      | Error _ -> ())
    [
      "";
      "block b\n  I0 frobnicate -> W0\n";
      "block b\n  I0 movi #xyz -> W0\n";
      "block b\n  I0 movi #1 -> Q3\n";
      "  I0 movi #1 -> W0\n" (* directive outside block *);
    ]

let grid_properties () =
  let module Md = Edge_isa.Machine_desc in
  let m = Md.default in
  check "16 tiles" true (Md.num_tiles m = 16);
  check "128 slots" true (Md.num_tiles m * m.Md.slots_per_tile = 128);
  check "hops symmetric" true (Md.hops m 3 12 = Md.hops m 12 3);
  check "self distance" true (Md.hops m 5 5 = 0);
  check "corner distance" true (Md.hops m 0 15 = 6);
  check "reg edge at top" true (Md.reg_access_hops m 0 < Md.reg_access_hops m 12);
  check "mem edge at left" true
    (Md.mem_access_hops m 0 < Md.mem_access_hops m 3);
  (* the in-order preset is a single centralized tile *)
  check "inorder is one tile" true (Md.num_tiles Md.inorder_edge = 1);
  check "inorder holds a block" true
    (Md.inorder_edge.Md.slots_per_tile >= Edge_isa.Block.max_instrs);
  check "inorder has no network" true (Md.hops Md.inorder_edge 0 0 = 0);
  check "presets validate" true
    (List.for_all (fun (_, p) -> Md.validate p = Ok ()) Md.presets)


(* random well-formed instructions round-trip the binary encoding *)
let qcheck_encode =
  QCheck.Test.make ~name:"instruction encode/decode" ~count:800
    QCheck.(quad (int_bound 61) (int_bound 2) (int_range (-256) 255) (int_bound 127))
    (fun (opidx, predsel, imm, tgt) ->
      let opcode = List.nth O.all opidx in
      let pred =
        if not (O.predicatable opcode) then I.Unpredicated
        else
          match predsel with
          | 0 -> I.Unpredicated
          | 1 -> I.If_true
          | _ -> I.If_false
      in
      let imm = if O.has_immediate opcode then Int64.of_int imm else 0L in
      let lsid =
        match opcode with O.Ld _ | O.St _ -> tgt land 31 | _ -> -1
      in
      let exit_idx = match opcode with O.Bro -> tgt land 31 | _ -> -1 in
      let targets =
        if O.max_targets opcode >= 1 then
          [ T.To_instr { id = max 1 tgt; slot = T.Left } ]
        else []
      in
      let i = I.make ~id:5 ~opcode ~pred ~imm ~targets ~lsid ~exit_idx () in
      match E.encode i with
      | Error _ -> QCheck.assume_fail ()
      | Ok words -> (
          match E.decode ~id:5 words with
          | Ok (i2, []) -> I.equal i i2
          | Ok (_, _ :: _) -> false
          | Error e -> QCheck.Test.fail_reportf "decode: %s" e))


(* binary program images round-trip for every compiled workload *)
let image_roundtrip () =
  List.iter
    (fun name ->
      let w = Option.get (Edge_workloads.Registry.find name) in
      match Edge_harness.Experiment.compile w Dfp.Config.both with
      | Error e -> Alcotest.failf "compile: %s" e
      | Ok c -> (
          let p = c.Dfp.Driver.program in
          match Edge_isa.Image.encode_program p with
          | Error e -> Alcotest.failf "encode: %s" e
          | Ok image -> (
              check "frame multiple" true
                (Bytes.length image mod Edge_isa.Image.frame_bytes = 0);
              match Edge_isa.Image.decode_program image with
              | Error e -> Alcotest.failf "decode: %s" e
              | Ok p2 ->
                  let t1 = Format.asprintf "%a" Edge_isa.Program.pp p in
                  let t2 = Format.asprintf "%a" Edge_isa.Program.pp p2 in
                  Alcotest.(check string) "roundtrip" t1 t2)))
    [ "tblook01"; "genalg"; "viterb00" ]

let image_rejects () =
  (match Edge_isa.Image.decode_program (Bytes.create 100) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must reject non-frame sizes");
  match Edge_isa.Image.decode_program (Bytes.create 1024) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must reject bad magic"

(* Every opcode x predication x target kind, constrained to the ISA's
   validity rules (predicatable opcodes only carry predicates, 9-bit
   immediates except geni, LSIDs for memory ops, exit indices for
   branches, mov4 targets share a slot and exclude writes, nothing
   targets I0.L), must round-trip bit-exactly through encode/decode. *)
let qcheck_encode_all =
  let gen =
    let open QCheck.Gen in
    let* opidx = int_bound (List.length O.all - 1) in
    let opcode = List.nth O.all opidx in
    let* predsel = int_bound 2 in
    let pred =
      if not (O.predicatable opcode) then I.Unpredicated
      else
        match predsel with
        | 0 -> I.Unpredicated
        | 1 -> I.If_true
        | _ -> I.If_false
    in
    let* imm =
      if not (O.has_immediate opcode) then return 0L
      else
        match opcode with
        | O.Geni -> ui64
        | _ -> map Int64.of_int (int_range (-256) 255)
    in
    let* lsid =
      match opcode with
      | O.Ld _ | O.St _ -> int_bound 31
      | _ -> return (-1)
    in
    let* exit_idx =
      match opcode with O.Bro -> int_bound 31 | _ -> return (-1)
    in
    let gen_slot = oneofl [ T.Left; T.Right; T.Pred ] in
    let* targets =
      match opcode with
      | O.Mov4 ->
          (* four 7-bit ids sharing one operand slot, never a write *)
          let* slot = gen_slot in
          let* n = int_range 1 4 in
          let+ ids = list_repeat n (int_range 1 127) in
          List.map (fun id -> T.To_instr { id; slot }) (List.sort_uniq compare ids)
      | _ ->
          let* n = int_bound (min 2 (O.max_targets opcode)) in
          let gen_target =
            let* kind = int_bound 3 in
            if kind = 3 then
              let+ w = int_bound 31 in
              T.To_write w
            else
              let* slot = gen_slot in
              (* I0.L encodes as 0, which collides with "no target" *)
              let+ id = int_range (if slot = T.Left then 1 else 0) 127 in
              T.To_instr { id; slot }
          in
          let+ ts = list_repeat n gen_target in
          List.sort_uniq compare ts
    in
    return (I.make ~id:5 ~opcode ~pred ~imm ~targets ~lsid ~exit_idx ())
  in
  QCheck.Test.make ~name:"encode/decode all opcodes x pred x targets"
    ~count:3000
    (QCheck.make ~print:(Format.asprintf "%a" I.pp) gen)
    (fun i ->
      match E.encode i with
      | Error e -> QCheck.Test.fail_reportf "encode: %s" e
      | Ok words -> (
          if List.length words <> E.words i then
            QCheck.Test.fail_reportf "word count: %d vs %d" (List.length words)
              (E.words i);
          match E.decode ~id:5 words with
          | Ok (i2, []) ->
              if I.equal i i2 then true
              else QCheck.Test.fail_reportf "roundtrip: %a vs %a" I.pp i I.pp i2
          | Ok (_, _ :: _) -> QCheck.Test.fail_reportf "leftover words"
          | Error e -> QCheck.Test.fail_reportf "decode: %s" e))

let tests =


  [
    Alcotest.test_case "opcode mnemonic roundtrip" `Quick opcode_roundtrip;
    Alcotest.test_case "opcode classes" `Quick opcode_classes;
    Alcotest.test_case "target roundtrip (exhaustive)" `Quick target_roundtrip;
    Alcotest.test_case "token semantics" `Quick token_semantics;
    Alcotest.test_case "predicate matching" `Quick pred_matching;
    Alcotest.test_case "encode roundtrip" `Quick encode_roundtrip;
    Alcotest.test_case "encode rejects wide imm" `Quick encode_rejects_wide_imm;
    Alcotest.test_case "block validate ok" `Quick block_validate_ok;
    Alcotest.test_case "block validate catches" `Quick block_validate_catches;
    Alcotest.test_case "memory semantics" `Quick mem_semantics;
    Alcotest.test_case "program checks" `Quick program_checks;
    Alcotest.test_case "asm roundtrip" `Quick asm_roundtrip_block;
    Alcotest.test_case "asm hand-written program" `Quick asm_hand_written;
    Alcotest.test_case "asm rejects garbage" `Quick asm_rejects;
    Alcotest.test_case "grid properties" `Quick grid_properties;
    QCheck_alcotest.to_alcotest qcheck_target;
    QCheck_alcotest.to_alcotest qcheck_mem;
    Alcotest.test_case "image roundtrip" `Quick image_roundtrip;
    Alcotest.test_case "image rejects garbage" `Quick image_rejects;
    QCheck_alcotest.to_alcotest qcheck_encode;
    QCheck_alcotest.to_alcotest qcheck_encode_all;
  ]
