(* Mutation tests for the per-pass static verifier (lib/check).

   Each test starts from a hand-built, known-good block (or hyperblock)
   that both the lattice checker and the path enumerator accept, then
   injects one class of invariant violation and asserts the checker
   reports exactly that invariant at that location — including the five
   bug shapes PR 2's fuzzing originally found after codegen, re-injected
   here and attributed to the pass that historically produced them.

   The cross-validation group enforces the checker-vs-enumerator
   contract on real compiles: the polynomial checker never flags a
   block the exponential enumerator proves clean, and flags (or skips)
   every block the enumerator rejects. *)

module B = Edge_isa.Block
module I = Edge_isa.Instr
module O = Edge_isa.Opcode
module T = Edge_isa.Target
module Hb = Edge_ir.Hblock
module Tac = Edge_ir.Tac
module Check = Edge_check.Check
module Diag = Edge_check.Diag
module Validate = Edge_fuzz.Validate
module G = Test_support.Goldens

let ti id slot = T.To_instr { id; slot }
let tw w = T.To_write w

let mk ?(reads = []) ?(writes = 0) ?(lsids = []) name instrs =
  {
    B.name;
    instrs = Array.of_list instrs;
    reads = Array.of_list reads;
    writes =
      Array.init writes (fun wslot -> { B.wslot; wreg = 40 + wslot });
    store_lsids = lsids;
    exits = [| "@next" |];
  }

let read rslot reg rtargets = { B.rslot; reg; rtargets }

let keys (r : Check.result) =
  List.sort compare
    (List.map (fun (d : Diag.t) -> (Diag.invariant_name d.Diag.invariant, d.Diag.where)) r.Check.diags)

let expect_clean what (r : Check.result) =
  Alcotest.(check (list (pair string string))) (what ^ " clean") [] (keys r);
  Alcotest.(check int) (what ^ " not skipped") 0 r.Check.skipped

let expect what expected (r : Check.result) =
  Alcotest.(check (list (pair string string)))
    what (List.sort compare expected) (keys r);
  Alcotest.(check int) (what ^ " not skipped") 0 r.Check.skipped

let expect_pass what pass (r : Check.result) =
  List.iter
    (fun (d : Diag.t) ->
      Alcotest.(check string) (what ^ " pass") pass d.Diag.pass)
    r.Check.diags

(* enumerator verdict, for agreeing-on-the-base sanity *)
let enum_clean what b =
  match Validate.block b with
  | Ok _ -> ()
  | Error es ->
      Alcotest.failf "%s: enumerator rejects the base block: %s" what
        (String.concat "; " es)

let enum_flags what b =
  match Validate.block b with
  | Ok true -> () (* skipped: checker being stricter is within contract *)
  | Ok false -> Alcotest.failf "%s: enumerator misses the mutation" what
  | Error _ -> ()

(* ---- base blocks ---------------------------------------------------- *)

(* a predicated diamond: one test fans out over Mov4 to two If_true /
   If_false arms for W0 and an If_true arm + If_false null for W1 *)
let diamond ?(flip = false) ?(drop_null = false) () =
  mk "diamond" ~writes:2
    ~reads:[ read 0 3 [ ti 1 T.Left ] ]
    [
      I.make ~id:0 ~opcode:O.Movi ~imm:0L ~targets:[ ti 1 T.Right ] ();
      I.make ~id:1 ~opcode:(O.Tst O.Eq) ~targets:[ ti 2 T.Left ] ();
      I.make ~id:2 ~opcode:O.Mov4
        ~targets:[ ti 3 T.Pred; ti 4 T.Pred; ti 5 T.Pred; ti 6 T.Pred ]
        ();
      I.make ~id:3 ~opcode:O.Movi ~pred:I.If_true ~imm:7L ~targets:[ tw 0 ] ();
      I.make ~id:4 ~opcode:O.Movi
        ~pred:(if flip then I.If_true else I.If_false)
        ~imm:9L ~targets:[ tw 0 ] ();
      I.make ~id:5 ~opcode:O.Movi ~pred:I.If_true ~imm:11L ~targets:[ tw 1 ]
        ();
      I.make ~id:6 ~opcode:O.Null ~pred:I.If_false
        ~targets:(if drop_null then [] else [ tw 1 ])
        ();
      I.make ~id:7 ~opcode:O.Bro ~exit_idx:0 ();
    ]

(* two unconditional stores; [dup] gives the second the first's lsid *)
let stores ?(dup = false) () =
  mk "stores" ~lsids:(if dup then [ 0 ] else [ 0; 1 ])
    [
      I.make ~id:0 ~opcode:O.Movi ~imm:64L ~targets:[ ti 2 T.Left ] ();
      I.make ~id:1 ~opcode:O.Movi ~imm:5L ~targets:[ ti 2 T.Right ] ();
      I.make ~id:2 ~opcode:(O.St O.W8) ~lsid:0 ();
      I.make ~id:3 ~opcode:O.Movi ~imm:72L ~targets:[ ti 5 T.Left ] ();
      I.make ~id:4 ~opcode:O.Movi ~imm:6L ~targets:[ ti 5 T.Right ] ();
      I.make ~id:5 ~opcode:(O.St O.W8) ~lsid:(if dup then 0 else 1) ();
      I.make ~id:6 ~opcode:O.Bro ~exit_idx:0 ();
    ]

(* a predicated store whose false path is resolved by a null marker;
   [lose_marker] drops the marker's target (the PR 2 null-store bug) *)
let null_store ?(lose_marker = false) () =
  mk "null_store" ~lsids:[ 0 ]
    ~reads:[ read 0 3 [ ti 1 T.Left ] ]
    [
      I.make ~id:0 ~opcode:O.Movi ~imm:0L ~targets:[ ti 1 T.Right ] ();
      I.make ~id:1 ~opcode:(O.Tst O.Eq) ~targets:[ ti 2 T.Left ] ();
      I.make ~id:2 ~opcode:O.Mov4 ~targets:[ ti 5 T.Pred; ti 6 T.Pred ] ();
      I.make ~id:3 ~opcode:O.Movi ~imm:64L ~targets:[ ti 5 T.Left ] ();
      I.make ~id:4 ~opcode:O.Movi ~imm:5L ~targets:[ ti 5 T.Right ] ();
      I.make ~id:5 ~opcode:(O.St O.W8) ~pred:I.If_true ~lsid:0 ();
      I.make ~id:6 ~opcode:O.Null ~pred:I.If_false
        ~targets:(if lose_marker then [] else [ ti 5 T.Left ])
        ();
      I.make ~id:7 ~opcode:O.Bro ~exit_idx:0 ();
    ]

(* a Mov4 fanout tree; [mixed] packs Left and Right consumers into one
   tree (the PR 2 mov4 packing bug) *)
let fanout ?(mixed = false) () =
  mk "fanout" ~writes:1
    [
      I.make ~id:0 ~opcode:O.Movi ~imm:3L ~targets:[ ti 1 T.Left ] ();
      I.make ~id:1 ~opcode:O.Mov4
        ~targets:
          (if mixed then [ ti 2 T.Left; ti 2 T.Right ] else [ ti 2 T.Left ])
        ();
      I.make ~id:2 ~opcode:(O.Iop O.Add) ~targets:[ tw 0 ] ();
      I.make ~id:3 ~opcode:O.Movi ~imm:5L
        ~targets:(if mixed then [] else [ ti 2 T.Right ])
        ();
      I.make ~id:4 ~opcode:O.Bro ~exit_idx:0 ();
    ]

(* I0's left operand is legally fed by a read; [collide] adds an
   instruction producer, hitting the reserved no-target encoding (the
   PR 2 I0.Left bug) *)
let reserved ?(collide = false) () =
  mk "reserved" ~writes:1
    ~reads:[ read 0 3 [ ti 0 T.Left ] ]
    [
      I.make ~id:0 ~opcode:(O.Un O.Mov) ~targets:[ tw 0 ] ();
      I.make ~id:1 ~opcode:O.Movi ~imm:5L
        ~targets:(if collide then [ ti 0 T.Left ] else [])
        ();
      I.make ~id:2 ~opcode:O.Bro ~exit_idx:0 ();
    ]

(* three correlated tests of the same register (one shared enumeration
   variable); [overlap] adds a second matching producer to I4's
   predicate, and [underivable] replaces I1's test with an add whose
   boolean value the lattice calls underivable *)
let merged ?(overlap = false) ?(underivable = false) () =
  mk "merged" ~writes:1
    ~reads:
      [ read 0 3 [ ti 1 T.Left; ti 2 T.Left ]; read 1 3 [ ti 3 T.Left; ti 4 T.Left ] ]
    [
      I.make ~id:0 ~opcode:O.Null ~pred:I.If_false ~targets:[ tw 0 ] ();
      I.make ~id:1
        ~opcode:(if underivable then O.Iopi O.Add else O.Tsti O.Eq)
        ~imm:0L ~targets:[ ti 4 T.Pred ] ();
      I.make ~id:2 ~opcode:(O.Tsti O.Eq) ~imm:0L
        ~targets:(if overlap then [ ti 4 T.Pred ] else [])
        ();
      I.make ~id:3 ~opcode:(O.Tsti O.Eq) ~imm:0L ~targets:[ ti 0 T.Pred ] ();
      I.make ~id:4 ~opcode:(O.Iopi O.Add) ~pred:I.If_true ~imm:1L
        ~targets:[ tw 0 ] ();
      I.make ~id:5 ~opcode:O.Bro ~exit_idx:0 ();
    ]

let bcheck b = Check.block ~pass:"codegen" b

(* ---- encoded-block mutations ---------------------------------------- *)

let bases_clean () =
  List.iter
    (fun b ->
      expect_clean b.B.name (bcheck b);
      enum_clean b.B.name b)
    [
      diamond (); stores (); null_store (); fanout (); reserved (); merged ();
    ]

let flipped_polarity () =
  let b = diamond ~flip:true () in
  expect "flipped polarity"
    [ ("double-delivery", "W0"); ("output-completeness", "W0") ]
    (bcheck b);
  enum_flags "flipped polarity" b

let dropped_null () =
  let b = diamond ~drop_null:true () in
  expect "dropped null" [ ("output-completeness", "W1") ] (bcheck b);
  enum_flags "dropped null" b

let duplicated_lsid () =
  let b = stores ~dup:true () in
  expect "duplicated lsid" [ ("lsid", "S0") ] (bcheck b);
  enum_flags "duplicated lsid" b

let mixed_slot_fanout () =
  let b = fanout ~mixed:true () in
  expect "mixed-slot fanout" [ ("fanout", "-") ] (bcheck b)

let nondisjoint_merge () =
  let b = merged ~overlap:true () in
  expect "non-disjoint merge" [ ("pred-or", "I4") ] (bcheck b);
  enum_flags "non-disjoint merge" b

let decoupled_predicate () =
  (* replacing I1's test with an add gives it a fresh enumeration
     variable (Gate no longer merges it with I3's test of the same
     register), so the two W0 arms stop being complementary: some
     assignments deliver twice, others starve the write *)
  let b = merged ~underivable:true () in
  expect "decoupled predicate"
    [ ("double-delivery", "W0"); ("output-completeness", "W0") ]
    (bcheck b);
  enum_flags "decoupled predicate" b

(* ---- the five historical PR 2 bugs, re-injected --------------------- *)

let pr2_merge_polarity () =
  (* opt_merge rebuilt hexits from a stale pre-flip snapshot, losing the
     flipped guard of sibling exits: both exits keep the same polarity *)
  let p = 0 in
  let mk_h pol2 =
    {
      Hb.hname = "hb";
      body = [];
      hexits =
        [
          { Hb.eguard = Some { Hb.gpol = true; gpreds = [ p ] };
            etarget = Some "a" };
          { Hb.eguard = Some { Hb.gpol = pol2; gpreds = [ p ] };
            etarget = Some "b" };
        ];
      houts = [];
    }
  in
  expect_clean "merge base" (Check.hblocks ~pass:"opt_merge" [ mk_h false ]);
  let r = Check.hblocks ~pass:"opt_merge" [ mk_h true ] in
  expect "merge polarity loss"
    [ ("branch", "exit"); ("branch", "exit") ]
    r;
  expect_pass "merge polarity loss" "opt_merge" r

let pr2_mov4_packing () =
  let r = Check.block ~pass:"codegen" (fanout ~mixed:true ()) in
  expect "mov4 packing" [ ("fanout", "-") ] r;
  expect_pass "mov4 packing" "codegen" r

let pr2_reserved_slot () =
  expect_clean "reserved base" (bcheck (reserved ()));
  let r = Check.block ~pass:"codegen" (reserved ~collide:true ()) in
  (* two diagnostics, both at I1: the explicit reserved-target rule and
     the round-trip mismatch (the target decodes away) *)
  expect "reserved I0.Left" [ ("encode", "I1"); ("encode", "I1") ] r;
  expect_pass "reserved I0.Left" "codegen" r

let pr2_null_store_marker () =
  let b = null_store ~lose_marker:true () in
  let r = Check.block ~pass:"codegen" b in
  expect "null-store marker" [ ("output-completeness", "S0") ] r;
  enum_flags "null-store marker" b

let pr2_sand_float_complement () =
  (* opt_sand synthesized complement chains across float compares; NaN
     makes (a < b) and (b <= a) non-complementary, which the checker
     models by never merging float compare variables *)
  let x = 10 and y = 11 and c1 = 12 and c2 = 13 in
  let mk_h fp cond2 =
    {
      Hb.hname = "hb";
      body =
        [
          { Hb.hop = Hb.Op (Tac.Cmp { dst = c1; cond = O.Lt; fp; a = Tac.T x; b = Tac.T y });
            guard = None };
          { Hb.hop = Hb.Op (Tac.Cmp { dst = c2; cond = cond2; fp; a = Tac.T x; b = Tac.T y });
            guard = None };
        ];
      hexits =
        [
          { Hb.eguard = Some { Hb.gpol = true; gpreds = [ c1 ] };
            etarget = Some "a" };
          { Hb.eguard = Some { Hb.gpol = true; gpreds = [ c2 ] };
            etarget = Some "b" };
        ];
      houts = [];
    }
  in
  (* integer complements share one variable: a sound partition *)
  expect_clean "int complement" (Check.hblocks ~pass:"opt_sand" [ mk_h false O.Ge ]);
  (* the same shape over floats must be flagged: NaN breaks it *)
  let r = Check.hblocks ~pass:"opt_sand" [ mk_h true O.Ge ] in
  expect "float complement"
    [ ("branch", "exit"); ("branch", "exit") ]
    r;
  expect_pass "float complement" "opt_sand" r

(* ---- cross-validation: checker vs enumerator on real compiles ------- *)

let compile_sources () =
  let kernels =
    List.map
      (fun n -> (n, G.kernel_source n))
      [ "pred_diamond"; "loop_accum"; "null_stores"; "sand_gate"; "break_path" ]
  in
  let generated =
    List.init 12 (fun i ->
        let seed = 100 + i in
        ( Printf.sprintf "gen%d" seed,
          Edge_fuzz.Pretty.kernel_to_string
            (Edge_fuzz.Gen.generate ~seed ~size:(10 + (3 * i))) ))
  in
  kernels @ generated

let cross_validation () =
  let checked = ref 0 in
  List.iter
    (fun (name, src) ->
      let ast =
        match Edge_lang.Parser.parse src with
        | Ok ast -> ast
        | Error e -> Alcotest.failf "%s: parse: %s" name e
      in
      List.iter
        (fun (cname, config) ->
          let cfg =
            match Edge_lang.Lower.lower ast with
            | Ok cfg -> cfg
            | Error e -> Alcotest.failf "%s: lower: %s" name e
          in
          match Dfp.Driver.compile_cfg ~check:false cfg config with
          | Error e -> Alcotest.failf "%s/%s: compile: %s" name cname e
          | Ok compiled ->
              List.iter
                (fun (_, b) ->
                  incr checked;
                  let lattice = Check.block ~pass:"codegen" b in
                  match Validate.block b with
                  | Ok false ->
                      (* enumerator proves the block clean: the checker
                         must not flag it (skipping is also a miss here
                         — the pipeline's blocks must all be in budget) *)
                      expect_clean
                        (Printf.sprintf "%s/%s/%s" name cname b.B.name)
                        lattice
                  | Ok true -> ()
                  | Error es ->
                      if lattice.Check.diags = [] && lattice.Check.skipped = 0
                      then
                        Alcotest.failf
                          "%s/%s/%s: cross-validation breach: enumerator \
                           flags (%s) but the lattice checker is clean"
                          name cname b.B.name (String.concat "; " es))
                compiled.Dfp.Driver.program.Edge_isa.Program.blocks)
        Edge_fuzz.Oracle.configs)
    (compile_sources ());
  Alcotest.(check bool) "nonempty corpus" true (!checked > 100)

let checked_compile_succeeds () =
  let src = G.kernel_source "pred_diamond" in
  let ast =
    match Edge_lang.Parser.parse src with
    | Ok a -> a
    | Error e -> Alcotest.failf "parse: %s" e
  in
  List.iter
    (fun (cname, config) ->
      let cfg =
        match Edge_lang.Lower.lower ast with
        | Ok c -> c
        | Error e -> Alcotest.failf "lower: %s" e
      in
      match Dfp.Driver.compile_cfg ~check:true cfg config with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: checked compile failed: %s" cname e)
    Edge_fuzz.Oracle.configs

(* ---- satellites ------------------------------------------------------ *)

let skip_counting () =
  (* the diamond has one predicate variable: under max_vars 0 the
     enumerator skips it and says so, under the default it runs *)
  let b = diamond () in
  (match Validate.block ~max_vars:0 b with
  | Ok skipped -> Alcotest.(check bool) "skipped under 0" true skipped
  | Error es -> Alcotest.failf "unexpected: %s" (String.concat "; " es));
  (match Validate.block b with
  | Ok skipped -> Alcotest.(check bool) "not skipped by default" false skipped
  | Error es -> Alcotest.failf "unexpected: %s" (String.concat "; " es));
  let program =
    match
      Edge_isa.Program.make ~entry:"diamond" [ { b with B.exits = [| B.halt_exit |] } ]
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "program: %s" e
  in
  match Validate.program ~max_vars:0 program with
  | Ok n -> Alcotest.(check int) "program skip count" 1 n
  | Error es -> Alcotest.failf "unexpected: %s" (String.concat "; " es)

let diag_key_roundtrip () =
  let d =
    Diag.make ~pass:"opt_merge" ~block:"hb3" ~where:"exit1" Diag.Pred_or
      "two matching predicates"
  in
  (match Diag.parse_key (Diag.to_string d) with
  | Some (pass, inv) ->
      Alcotest.(check (pair string string))
        "key" ("opt_merge", "pred-or") (pass, inv)
  | None -> Alcotest.fail "parse_key failed on a rendered diagnostic");
  (match Diag.parse_key ("compile: " ^ Diag.to_string d ^ " (+2 more)") with
  | Some (pass, _) -> Alcotest.(check string) "embedded" "opt_merge" pass
  | None -> Alcotest.fail "parse_key failed on an embedded diagnostic");
  Alcotest.(check bool)
    "no key in plain errors" true
    (Diag.parse_key "compile: block has 131 instructions" = None)

let enable_switch () =
  let before = Check.enabled () in
  Check.set_enabled true;
  Alcotest.(check bool) "forced on" true (Check.enabled ());
  Alcotest.(check bool) "without_check turns off" false
    (Check.without_check (fun () -> Check.enabled ()));
  Alcotest.(check bool) "restored" true (Check.enabled ());
  Check.set_enabled before

(* Verdicts reused within a domain's current program are invisible.
   Back to back in one fresh domain, each input is compiled with the
   checker on under every oracle config and [hand_optimized], and each
   result is validated (without and with path enumeration) and checked
   again; every answer must equal the same call alone in a domain of
   its own, whose scope is empty.  A block the checker skips reads
   skipped when its verdict is reused.  And failing verdicts are never
   stored: the force_dead loop, run twice in one domain, fails and
   passes the same way, with the same messages, both times. *)
let verdict_reuse_transparent () =
  let module Pins = Test_support.Compiled_pins in
  let module Oracle = Edge_fuzz.Oracle in
  Edge_fuzz.Ineff_oracle.install ();
  let parse name src =
    match Edge_lang.Parser.parse src with
    | Ok ast -> (name, ast)
    | Error e -> Alcotest.failf "%s: parse: %s" name e
  in
  let inputs =
    List.map (fun k -> parse k (G.kernel_source k)) G.kernels
    @ List.init 10 (fun i ->
          let seed = 51 + i in
          let size = Edge_fuzz.Gen.size_for ~min_size:6 ~max_size:45 i in
          ( Printf.sprintf "gen:seed=%d,size=%d" seed size,
            Edge_fuzz.Gen.generate ~seed ~size ))
  in
  let configs = Oracle.configs @ [ ("Hand", Dfp.Config.hand_optimized) ] in
  (* under [max_vars:0] every block with a predicate variable is
     skipped, so a skip verdict is judged and reused too *)
  let validate (c : Dfp.Driver.compiled) =
    List.concat_map
      (fun max_vars ->
        match Validate.program ~max_vars c.Dfp.Driver.program with
        | Ok skipped -> [ string_of_int skipped ]
        | Error es -> es)
      [ 0; Validate.default_max_vars ]
  in
  let check_program (c : Dfp.Driver.compiled) =
    let r = Check.program c.Dfp.Driver.program in
    string_of_int r.Check.skipped :: List.map Diag.to_string r.Check.diags
  in
  let in_fresh_domain f = Domain.join (Domain.spawn f) in
  List.iter
    (fun (name, ast) ->
      let shared =
        in_fresh_domain (fun () ->
            List.map
              (fun (_, config) ->
                let r = Oracle.compile ~check:true ast config in
                let judged =
                  Result.map (fun c -> (validate c, check_program c)) r
                in
                (r, judged))
              configs)
      in
      List.iter2
        (fun (cn, config) (r, judged) ->
          let what = name ^ " " ^ cn in
          Alcotest.(check (list string))
            (what ^ " compile")
            (in_fresh_domain (fun () ->
                 Pins.fields (Oracle.compile ~check:true ast config)))
            (Pins.fields r);
          match (r, judged) with
          | Ok c, Ok (validated, checked) ->
              Alcotest.(check (list string))
                (what ^ " validate")
                (in_fresh_domain (fun () -> validate c))
                validated;
              Alcotest.(check (list string))
                (what ^ " check")
                (in_fresh_domain (fun () -> check_program c))
                checked
          | _ -> ())
        configs shared)
    inputs;
  (* a block whose BDDs pass the checker's node budget is skipped, and
     a reused verdict says so again: 16 test pairs (a_i, then b_i
     predicated on a_i) feed one predicate-OR, whose fire region
     OR (a_i && b_i) needs 2^16 nodes in the variable order a, then b *)
  let over_budget = Test_support.Judge_pins.over_budget in
  let judge () =
    let r = bcheck over_budget in
    (keys r, r.Check.skipped)
  in
  List.iter
    (fun (what, got) ->
      Alcotest.(check (pair (list (pair string string)) int)) what ([], 1) got)
    [
      ("over budget, alone", in_fresh_domain judge);
      ( "over budget, judged again for one program",
        in_fresh_domain (fun () ->
            Edge_check.Scope.enter "over budget";
            ignore (judge ());
            judge ()) );
    ];
  (* bogus deletions: caught by the enumerator hook, or by the checker
     with the hook off *)
  let ast = snd (parse "pred_diamond" (G.kernel_source "pred_diamond")) in
  let force_dead_loop ~check =
    List.init 16 (fun i ->
        Dfp.Opt_ineff.force_dead := [ i ];
        match Oracle.compile ~check ast Dfp.Config.both with
        | Ok c -> Pins.fields (Ok c)
        | Error e -> [ "error"; e ])
  in
  Fun.protect
    ~finally:(fun () ->
      Dfp.Opt_ineff.force_dead := [];
      Edge_fuzz.Ineff_oracle.install ())
    (fun () ->
      List.iter
        (fun (what, hooked, check) ->
          if not hooked then Dfp.Opt_ineff.cross_validate := None;
          let first, second =
            in_fresh_domain (fun () ->
                let first = force_dead_loop ~check in
                (first, force_dead_loop ~check))
          in
          Alcotest.(check bool)
            (what ^ ": some bogus deletion fails")
            true
            (List.exists (fun f -> List.hd f = "error") first);
          List.iteri
            (fun i (a, b) ->
              Alcotest.(check (list string))
                (Printf.sprintf "%s: force_dead [%d] again" what i)
                a b)
            (List.combine first second))
        [ ("hooked", true, false); ("checker", false, true) ])

(* every answer of the four block judges over the pinned block set
   matches test/golden/judges.digests (re-bless with [make
   regen-golden] after an intended change to a verdict or message) *)
let judges_pinned () =
  let module Pins = Test_support.Judge_pins in
  let pinned =
    G.read_file (Pins.path ())
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let now = Pins.lines () in
  let key l =
    match String.split_on_char ' ' l with
    | name :: variant :: _ -> name ^ " " ^ variant
    | _ -> l
  in
  let blessed = Hashtbl.create (List.length pinned) in
  List.iter (fun l -> Hashtbl.replace blessed l ()) pinned;
  let differ =
    List.filter (fun l -> not (Hashtbl.mem blessed l)) now |> List.map key
  in
  if differ <> [] then
    Alcotest.failf "%d of %d lines differ from %s, first: %s"
      (List.length differ) (List.length now) Pins.file_name
      (String.concat ", " (List.filteri (fun i _ -> i < 5) differ));
  Alcotest.(check int) "pinned lines" (List.length pinned) (List.length now)

(* An encoded block's facts entry keeps the checker's passing outcome
   only.  [judges pinned] judges with no program named, where nothing
   is stored; here one program is named, so every block's facts are
   stored.  Each pinned block the checker fails is validated first,
   which stores its facts, then checked twice, and both checks must
   equal the check with nothing stored. *)
let facts_entry_keeps_failures () =
  let module Pins = Test_support.Judge_pins in
  let judge b = Check.block ~pass:"pin" b in
  Edge_check.Scope.leave ();
  let failing =
    List.filter_map
      (fun (name, variant, _, b) ->
        match judge b with
        | { Check.diags = []; _ } -> None
        | r -> Some (name ^ " " ^ variant, b, Pins.render_check r))
      (Pins.blocks ())
  in
  Alcotest.(check bool) "some pinned block fails" true (failing <> []);
  Fun.protect ~finally:Edge_check.Scope.leave @@ fun () ->
  Edge_check.Scope.enter "facts entry";
  List.iter
    (fun (what, b, alone) ->
      ignore (Validate.block b);
      List.iter
        (fun time ->
          Alcotest.(check string)
            (what ^ " checked " ^ time)
            alone
            (Pins.render_check (judge b)))
        [ "once"; "twice" ])
    failing

(* a store that also gets a null: harmless when the null comes first
   (the store is resolved and never fires), an error when it comes
   second, so only the scalar walk's delivery order decides *)
let null_store ~null_first =
  let null id = I.make ~id ~opcode:O.Null ~targets:[ ti 2 T.Left ] () in
  let movi id target = I.make ~id ~opcode:O.Movi ~imm:1L ~targets:[ target ] () in
  let store = I.make ~id:2 ~opcode:(O.St O.W8) ~lsid:0 () in
  let branch = I.make ~id:4 ~opcode:O.Bro ~exit_idx:0 () in
  mk ~lsids:[ 0 ]
    (if null_first then "null_first" else "null_second")
    (if null_first then [ null 0; movi 1 (ti 2 T.Right); store; movi 3 (ti 2 T.Left); branch ]
     else [ movi 0 (ti 2 T.Left); movi 1 (ti 2 T.Right); store; null 3; branch ])

(* a cycle that oscillates once an operand gets two tokens: where g3
   is 0, I1 lets I0 fire, whose token comes back round to I1 as a
   second one that flips I1 to true, which stops I0 again; where g3 is
   1, I5 writes W0 and the block completes *)
let oscillating =
  mk ~writes:1
    ~reads:[ read 0 3 [ ti 1 T.Left ] ]
    "oscillating"
    [
      I.make ~id:0 ~opcode:O.Movi ~pred:I.If_false ~imm:1L ~targets:[ ti 2 T.Left ] ();
      I.make ~id:1 ~opcode:(O.Un O.Mov) ~targets:[ ti 0 T.Pred; ti 5 T.Pred ] ();
      I.make ~id:2 ~opcode:(O.Un O.Mov) ~targets:[ ti 3 T.Left ] ();
      I.make ~id:3 ~opcode:(O.Un O.Mov) ~targets:[ ti 1 T.Left ] ();
      I.make ~id:4 ~opcode:O.Bro ~exit_idx:0 ();
      I.make ~id:5 ~opcode:O.Movi ~pred:I.If_true ~imm:2L ~targets:[ tw 0 ] ();
    ]

(* a cycle through an lsid edge (I1 → I5 → I2, whose lsid is below
   I1's) in which the store is resolved only by a null that comes after
   the load in id order: the load fires only on the pass after the one
   that resolves the store, and then W0 gets a token from I5 besides
   I6's *)
let late_null_resolution =
  mk ~writes:1 ~lsids:[ 0 ] "late_null_resolution"
    [
      I.make ~id:0 ~opcode:O.Bro ~exit_idx:0 ();
      I.make ~id:1 ~opcode:(O.Ld O.W8) ~lsid:1 ~targets:[ ti 5 T.Left ] ();
      I.make ~id:2 ~opcode:(O.St O.W8) ~lsid:0 ();
      I.make ~id:3 ~opcode:O.Null ~targets:[ ti 2 T.Left ] ();
      I.make ~id:4 ~opcode:O.Movi ~imm:1L ~targets:[ ti 1 T.Left ] ();
      I.make ~id:5 ~opcode:(O.Un O.Mov) ~targets:[ ti 2 T.Right; tw 0 ] ();
      I.make ~id:6 ~opcode:O.Movi ~imm:2L ~targets:[ tw 0 ] ();
    ]

(* The lane walk fails exactly the paths the scalar walk fails (the
   message is the scalar walk's for the lowest of them either way): on
   every block of judges.digests (the compiled blocks, their mutants,
   the hand-built blocks), two seeded chains of one to three random
   mutations of each compiled block, and the hand-built order-dependent
   stores and cycles above. *)
let lane_walk_exact () =
  let module Pins = Test_support.Judge_pins in
  let random =
    List.concat
      (List.mapi
         (fun k (name, b) ->
           let rng = Random.State.make [| k; 1 |] in
           let mutate b =
             let _, m =
               List.nth Pins.mutators
                 (Random.State.int rng (List.length Pins.mutators))
             in
             Option.value ~default:b (m rng b)
           in
           List.init 2 (fun r ->
               let steps = 1 + Random.State.int rng 3 in
               ( Printf.sprintf "%s random-%d" name r,
                 List.fold_left (fun b _ -> mutate b) b (List.init steps Fun.id) )))
         (Pins.compiled_blocks ()))
  in
  let blocks =
    List.map (fun (name, variant, _, b) -> (name ^ " " ^ variant, b)) (Pins.blocks ())
    @ random
    @ List.map (fun null_first -> ("null store", null_store ~null_first)) [ true; false ]
    @ [ ("oscillating", oscillating); ("late null resolution", late_null_resolution) ]
  in
  Edge_check.Scope.leave ();
  let some_fail = ref 0 and null_store_fails = ref 0 in
  List.iter
    (fun (name, b) ->
      let walk w =
        match Validate.path_failures w b with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e)
      in
      let lanes = walk Validate.Lanes and scalar = walk Validate.Scalar in
      (match (lanes, scalar) with
      | Ok (Some l), Ok (Some s) when l <> s ->
          let only x y = List.filter (fun a -> not (List.mem a y)) x in
          Alcotest.failf "%s: assignments failing only on lanes [%s], only scalar [%s]"
            name
            (String.concat " " (List.map string_of_int (only l s)))
            (String.concat " " (List.map string_of_int (only s l)))
      | _ ->
          if lanes <> scalar then Alcotest.failf "%s: the walks disagree" name);
      match scalar with
      | Ok (Some (_ :: _)) ->
          incr some_fail;
          if String.starts_with ~prefix:"null store" name then incr null_store_fails
      | _ -> ())
    blocks;
  Alcotest.(check bool) "some blocks fail" true (!some_fail > 100);
  Alcotest.(check int) "the null after the store fails" 1 !null_store_fails;
  Alcotest.(check (option (list int)))
    "the oscillating cycle fails where g3 is 0" (Some [ 0 ])
    (Validate.path_failures Validate.Lanes oscillating);
  Alcotest.(check (result bool (list string)))
    "the late null resolution is reported"
    (Error [ "path []: write slot 0 received two tokens" ])
    (Validate.block late_null_resolution)

(* blocks with an id or a target out of range: every judge reports
   errors, and none raises *)
let malformed_reported () =
  List.iter
    (fun (b : B.t) ->
      let what judge = Printf.sprintf "%s: %s" b.B.name judge in
      let errors judge = function
        | Ok _ -> Alcotest.failf "%s reports no error" (what judge)
        | Error (_ :: _) -> ()
        | Error [] -> Alcotest.failf "%s: empty error list" (what judge)
      in
      let guarded judge f =
        match f () with
        | r -> r
        | exception e ->
            Alcotest.failf "%s raises %s" (what judge) (Printexc.to_string e)
      in
      errors "Block.validate" (guarded "Block.validate" (fun () -> B.validate b));
      List.iter
        (fun max_vars ->
          let judge = Printf.sprintf "Validate.block ~max_vars:%d" max_vars in
          errors judge (guarded judge (fun () -> Validate.block ~max_vars b)))
        [ 0; Validate.default_max_vars ];
      let r = guarded "Check.block" (fun () -> Check.block ~pass:"test" b) in
      if r.Check.diags = [] then
        Alcotest.failf "%s reports no diagnostic" (what "Check.block"))
    Test_support.Judge_pins.malformed

let tests =
  [
    Alcotest.test_case "base blocks clean" `Quick bases_clean;
    Alcotest.test_case "mutation: flipped polarity" `Quick flipped_polarity;
    Alcotest.test_case "mutation: dropped null token" `Quick dropped_null;
    Alcotest.test_case "mutation: duplicated lsid" `Quick duplicated_lsid;
    Alcotest.test_case "mutation: mixed-slot fanout" `Quick mixed_slot_fanout;
    Alcotest.test_case "mutation: non-disjoint merge" `Quick nondisjoint_merge;
    Alcotest.test_case "mutation: decoupled predicate" `Quick
      decoupled_predicate;
    Alcotest.test_case "pr2: opt_merge polarity loss" `Quick pr2_merge_polarity;
    Alcotest.test_case "pr2: mov4 packing" `Quick pr2_mov4_packing;
    Alcotest.test_case "pr2: reserved I0.Left" `Quick pr2_reserved_slot;
    Alcotest.test_case "pr2: null-store marker" `Quick pr2_null_store_marker;
    Alcotest.test_case "pr2: sand float complement" `Quick
      pr2_sand_float_complement;
    Alcotest.test_case "cross-validation vs enumerator" `Slow cross_validation;
    Alcotest.test_case "checked compile succeeds" `Quick
      checked_compile_succeeds;
    Alcotest.test_case "enumerator skip counting" `Quick skip_counting;
    Alcotest.test_case "diagnostic key round-trip" `Quick diag_key_roundtrip;
    Alcotest.test_case "enable switch" `Quick enable_switch;
    Alcotest.test_case "verdict reuse transparent" `Quick
      verdict_reuse_transparent;
    Alcotest.test_case "judges pinned" `Quick judges_pinned;
    Alcotest.test_case "facts entry keeps no failure" `Quick
      facts_entry_keeps_failures;
    Alcotest.test_case "lane walk equals scalar walk" `Quick lane_walk_exact;
    Alcotest.test_case "malformed blocks reported" `Quick malformed_reported;
  ]
