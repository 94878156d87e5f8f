(* Psi-SSA framework tests (lib/ir/psi_ssa + lib/core/opt_ineff).

   Five layers:

   - unit tests of the view / psi-node / ineffectuality layers on
     hand-built hyperblocks;
   - the passes that read the psi view (opt_path, opt_ineff) over
     fixed-seed fuzz kernels: every kernel goes through the full
     oracle — all eight configurations, checked and validated, both
     timing backends — so a pass that breaks a checker invariant or
     changes what a program computes fails here;
   - mutation tests: force a bogus "provably ineffectual" verdict into
     the pass and assert the exhaustive-enumeration cross-validation
     rejects it before it deletes anything — and that with the hook
     disabled the bogus deletion is caught downstream (checker
     diagnostic or oracle mismatch), never silently absorbed;
   - the enumerator's first breaching assignment on a block whose
     assignments span two 32-lane chunks, and its answers on every
     recorded block, pinned (test/golden/enum.digests, see
     [Test_support.Enum_pins]);
   - Pass_id round-trips: every pass name and counter key parses back
     to the variant it came from, so pass.* counters and
     check[pass=...] diagnostics cannot drift apart. *)

module Hb = Edge_ir.Hblock
module Tac = Edge_ir.Tac
module Temp = Edge_ir.Temp
module Psi = Edge_ir.Psi_ssa
module O = Edge_isa.Opcode
module Oracle = Edge_fuzz.Oracle
module Fz = Edge_fuzz
module G = Test_support.Goldens

let guard pol preds = { Hb.gpol = pol; gpreds = preds }

let cmp dst a b =
  Tac.Cmp { dst; cond = O.Lt; fp = false; a = Tac.T a; b = Tac.T b }

let mov dst a = Tac.Un { dst; op = O.Mov; a = Tac.T a }
let add dst a b = Tac.Bin { dst; op = O.Add; a = Tac.T a; b = Tac.T b }
let op ?g i = { Hb.hop = Hb.Op i; guard = g }

(* the canonical diamond: out delivered by two movs of opposite
   polarity — one psi node with two arguments *)
let diamond () =
  let p = 1 and a = 2 and b = 3 and out = 9 in
  ( {
      Hb.hname = "hb";
      body =
        [
          op (cmp p a b);
          op ~g:(guard true [ p ]) (mov out a);
          op ~g:(guard false [ p ]) (mov out b);
        ];
      hexits = [ { Hb.eguard = None; etarget = None } ];
      houts = [ (out, out) ];
    },
    (p, a, b, out) )

let psi_view () =
  let h, (p, a, _b, out) = diamond () in
  let vw = Psi.view h in
  (match Psi.psi vw out with
  | None -> Alcotest.fail "out has two deliveries; expected a psi node"
  | Some args ->
      Alcotest.(check (list int))
        "psi argument sites, body order" [ 1; 2 ]
        (List.map (fun (x : Psi.psi_arg) -> x.Psi.asite) args);
      Alcotest.(check (list bool))
        "no null deliveries" [ false; false ]
        (List.map (fun (x : Psi.psi_arg) -> x.Psi.anull) args));
  Alcotest.(check bool) "single-def temp has no psi" true (Psi.psi vw p = None);
  Alcotest.(check bool) "p is a predicate" true (Temp.Set.mem p vw.Psi.vpreds);
  Alcotest.(check bool)
    "a is not a predicate" false
    (Temp.Set.mem a vw.Psi.vpreds);
  (* predicate-aware def-use: p is consumed by the guards of sites 1
     and 2, out produces the canonical block output *)
  let guards_of t =
    List.filter_map
      (function Psi.Guard i -> Some i | _ -> None)
      (Psi.uses_of vw t)
  in
  Alcotest.(check (list int)) "p guards sites 1 and 2" [ 1; 2 ] (guards_of p);
  Alcotest.(check bool)
    "out feeds the block output" true
    (List.mem (Psi.Out out) (Psi.uses_of vw out))

let psi_null_delivery () =
  let h, (_, _, _, out) = diamond () in
  h.Hb.body <-
    h.Hb.body @ [ { Hb.hop = Hb.Null_write out; guard = None } ];
  let vw = Psi.view h in
  match Psi.psi vw out with
  | None -> Alcotest.fail "expected a psi node"
  | Some args ->
      Alcotest.(check (list bool))
        "null delivery is an explicit psi argument" [ false; false; true ]
        (List.map (fun (x : Psi.psi_arg) -> x.Psi.anull) args)

let promotable () =
  let h, (_, _, _, out) = diamond () in
  let vw = Psi.view h in
  Alcotest.(check bool)
    "a psi merge is not promotable" true
    (Psi.promotable_chain vw out = None);
  (* single guarded chain: cmp → mov c ← a (guarded) → add d = c+c
     (guarded); promoting d unguards the whole chain *)
  let p = 1 and a = 2 and b = 3 and c = 5 and d = 6 in
  let h2 =
    {
      Hb.hname = "hb2";
      body =
        [
          op (cmp p a b);
          op ~g:(guard true [ p ]) (mov c a);
          op ~g:(guard true [ p ]) (add d c c);
        ];
      hexits = [ { Hb.eguard = None; etarget = None } ];
      houts = [ (d, d) ];
    }
  in
  let vw2 = Psi.view h2 in
  match Psi.promotable_chain vw2 d with
  | None -> Alcotest.fail "single guarded chain should be promotable"
  | Some sites ->
      Alcotest.(check (list int))
        "promotion unguards the chain" [ 1; 2 ]
        (List.sort compare sites)

(* dead-site detection: an instruction feeding nothing has an empty
   effectual region; the pass deletes it and the result still passes
   the static checker *)
let ineffectual_site () =
  let p = 1 and a = 2 and b = 3 and dead = 5 and out = 9 in
  let h =
    {
      Hb.hname = "hb";
      body =
        [
          op (cmp p a b);
          op ~g:(guard true [ p ]) (add dead a b);
          op ~g:(guard true [ p ]) (mov out a);
          op ~g:(guard false [ p ]) (mov out b);
        ];
      hexits = [ { Hb.eguard = None; etarget = None } ];
      houts = [ (out, out) ];
    }
  in
  (match Psi.ineffectuality h with
  | Error e -> Alcotest.failf "analysis inconclusive: %s" e
  | Ok iv -> Alcotest.(check (list int)) "the add is dead" [ 1 ] iv.Psi.dead);
  let m = Edge_obs.Metrics.create () in
  Dfp.Opt_ineff.run ~m h;
  Alcotest.(check int) "site deleted" 3 (List.length h.Hb.body);
  Alcotest.(check int)
    "pass.ineff.instrs_deleted counts it" 1
    (List.assoc "pass.ineff.instrs_deleted"
       (Edge_obs.Metrics.counters m));
  let r = Edge_check.Check.hblocks ~pass:"opt_ineff" [ h ] in
  Alcotest.(check int)
    "deleted block still checks clean" 0
    (List.length r.Edge_check.Check.diags)

(* guard dropping: a guard whose fire region equals the unguarded one
   is an ineffectual predicate delivery *)
let droppable_guard () =
  let p = 1 and a = 2 and b = 3 and c = 5 and d = 6 in
  let h =
    {
      Hb.hname = "hb";
      body =
        [
          op (cmp p a b);
          op ~g:(guard true [ p ]) (mov c a);
          op ~g:(guard true [ p ]) (add d c c);
          { Hb.hop = Hb.Null_write d; guard = Some (guard false [ p ]) };
        ];
      hexits = [ { Hb.eguard = None; etarget = None } ];
      houts = [ (d, d) ];
    }
  in
  (match Psi.ineffectuality h with
  | Error e -> Alcotest.failf "analysis inconclusive: %s" e
  | Ok iv ->
      (* I1 reads the live-in a (always available): its guard is load-
         bearing.  I2 reads c, defined only under the same guard: its
         guard delivers nothing.  I3's null must stay guarded — dropping
         it would deliver the null unconditionally *)
      Alcotest.(check (list int)) "only the add's guard" [ 2 ] iv.Psi.droppable);
  let m = Edge_obs.Metrics.create () in
  Dfp.Opt_ineff.run ~m h;
  Alcotest.(check int)
    "pass.ineff.guards_dropped counts it" 1
    (List.assoc "pass.ineff.guards_dropped" (Edge_obs.Metrics.counters m));
  let guards = List.map (fun hi -> hi.Hb.guard <> None) h.Hb.body in
  Alcotest.(check (list bool))
    "the add runs unguarded" [ false; true; false; true ] guards;
  let r = Edge_check.Check.hblocks ~pass:"opt_ineff" [ h ] in
  Alcotest.(check int)
    "unguarded block still checks clean" 0
    (List.length r.Edge_check.Check.diags)

(* ---- the psi passes over fuzz kernels ------------------------------ *)

(* 24 fixed-seed kernels through the oracle: every config compiles them
   checked, so a checker diagnostic after opt_path or opt_ineff fails
   the compile, and the oracle validates each artifact and runs it on
   both timing backends against the reference interpreter. *)
let psi_passes_preserve () =
  let report =
    Fz.Fuzz.run ~jobs:4 ~machines:Oracle.matrix_machines ~min_size:4
      ~max_size:14 ~seed:77_000 ~n:24 ()
  in
  match report.Fz.Fuzz.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%d failures; first: %a"
        (List.length report.Fz.Fuzz.failures)
        Fz.Fuzz.pp_failure f

(* ---- mutation tests: bogus verdicts must not survive ---------------- *)

let parse_kernel name =
  match Edge_lang.Parser.parse (G.kernel_source name) with
  | Ok ast -> ast
  | Error e -> Alcotest.failf "%s: parse: %s" name e

let reference_ret ast =
  match Oracle.run_reference ast with
  | Ok o -> o.Oracle.ret
  | Error f -> Alcotest.failf "reference: %s" f.Oracle.message

(* with the enumerator hook installed (process-wide, from the oracle),
   forcing live sites into the dead set must raise a Breach — rendered
   as a check[pass=opt_ineff ...] diagnostic — before anything is
   deleted, and no forced verdict may reach execution as wrong code *)
let mutation_enumerator_catches () =
  let ast = parse_kernel "pred_diamond" in
  let expected = reference_ret ast in
  let breaches = ref 0 and silent = ref 0 in
  Fun.protect
    ~finally:(fun () -> Dfp.Opt_ineff.force_dead := [])
    (fun () ->
      for i = 0 to 15 do
        Dfp.Opt_ineff.force_dead := [ i ];
        match Oracle.compile ~check:false ast Dfp.Config.both with
        | Error e when Edge_check.Diag.parse_key e <> None -> incr breaches
        | Error _ -> ()
        | Ok c -> (
            match Oracle.run_functional c with
            | Ok o when Int64.equal o.Oracle.ret expected && not o.Oracle.fault
              ->
                ()
            | _ -> incr silent)
      done);
  Alcotest.(check bool)
    "at least one bogus verdict disproved by enumeration" true (!breaches > 0);
  Alcotest.(check int)
    "no bogus deletion reached execution" 0 !silent

(* with the hook disabled the bogus deletions actually apply; they must
   still be caught downstream — by a checker diagnostic or by the
   oracle's functional verification — never absorbed silently *)
let mutation_caught_unhooked () =
  let ast = parse_kernel "pred_diamond" in
  let expected = reference_ret ast in
  let caught = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Dfp.Opt_ineff.force_dead := [];
      (* restore the process-wide enumerator hook for later tests *)
      Fz.Ineff_oracle.install ())
    (fun () ->
      Dfp.Opt_ineff.cross_validate := None;
      for i = 0 to 15 do
        Dfp.Opt_ineff.force_dead := [ i ];
        match Oracle.compile ~check:true ast Dfp.Config.both with
        | Error _ -> incr caught
        | Ok c -> (
            match Oracle.run_functional c with
            | Ok o when Int64.equal o.Oracle.ret expected && not o.Oracle.fault
              ->
                ()
            | _ -> incr caught)
      done);
  Alcotest.(check bool)
    "bogus deletions caught by checker or oracle" true (!caught > 0)

(* ---- the enumerator across chunks ----------------------------------- *)

(* six live-in predicates t10..t15 give 64 assignments, two chunks of
   32 lanes; t15 is 1 only in the second.  The store fires only when
   t15 is 1, and it reads I0's copy of t15 as its guard, so I0 is
   effectual wherever it fires: deleting it breaches on the first
   assignment, all zeros, in the first chunk *)
let enumerator_across_chunks () =
  let q = 20 and r = 21 in
  let h =
    {
      Hb.hname = "hb";
      body =
        [
          op (mov q 15);
          op ~g:(guard true [ 10; 11; 12; 13; 14 ]) (mov r 1);
          op ~g:(guard true [ q ])
            (Tac.Store { width = O.W8; addr = Tac.T 1; off = 0; v = Tac.T 2 });
        ];
      hexits = [ { Hb.eguard = None; etarget = None } ];
      houts = [ (r, r) ];
    }
  in
  let breach at what =
    Printf.sprintf
      "check[pass=opt_ineff block=hb at=I%d invariant=structure]: \
       ineffectuality cross-validation breach: %s [t10=0 t11=0 t12=0 t13=0 \
       t14=0 t15=0]"
      at what
  in
  let answer plan =
    match Fz.Ineff_oracle.check_plan h plan with
    | Ok () -> "Ok"
    | Error e -> e
  in
  Alcotest.(check string)
    "copy of t15 deleted"
    (breach 0 "site deleted as ineffectual but contributes on")
    (answer { Dfp.Opt_ineff.pdead = [ 0 ]; pdrops = [] });
  Alcotest.(check string)
    "store's guard dropped"
    (breach 2 "guard dropped but the fire region changes on")
    (answer { Dfp.Opt_ineff.pdead = []; pdrops = [ 2 ] })

(* ---- the enumerator's answers, pinned ------------------------------- *)

(* every recorded block's answers match test/golden/enum.digests, and
   each breach kind occurs at least once among them *)
let enumerator_pinned () =
  let module Pins = Test_support.Enum_pins in
  let pinned =
    G.read_file (Pins.path ())
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let now, counts = Pins.lines_and_counts () in
  let blessed = Hashtbl.create (List.length pinned) in
  List.iter (fun l -> Hashtbl.replace blessed l ()) pinned;
  let differ =
    List.filter (fun l -> not (Hashtbl.mem blessed l)) now
    |> List.map (fun l -> List.hd (String.split_on_char ' ' l))
  in
  if differ <> [] then
    Alcotest.failf "%d of %d lines differ from %s, first: %s"
      (List.length differ) (List.length now) Pins.file_name
      (String.concat ", " (List.filteri (fun i _ -> i < 5) differ));
  Alcotest.(check int) "pinned lines" (List.length pinned) (List.length now);
  List.iter
    (fun (kind, n) ->
      Alcotest.(check bool) (kind ^ " breaches occur") true (n > 0))
    counts

(* ---- Pass_id round-trips -------------------------------------------- *)

let pass_id_roundtrip () =
  List.iter
    (fun p ->
      let name = Dfp.Pass_id.name p in
      Alcotest.(check bool)
        (name ^ " name round-trips") true
        (Dfp.Pass_id.of_name name = Some p);
      let counter = Dfp.Pass_id.counter p "things" in
      Alcotest.(check bool)
        (counter ^ " counter round-trips") true
        (Dfp.Pass_id.of_counter counter = Some p))
    Dfp.Pass_id.all;
  Alcotest.(check bool)
    "unknown counters do not parse" true
    (Dfp.Pass_id.of_counter "pass.bogus.things" = None);
  Alcotest.(check bool)
    "non-pass keys do not parse" true
    (Dfp.Pass_id.of_counter "serve.fast_hits" = None)

let tests =
  [
    Alcotest.test_case "psi view and def-use" `Quick psi_view;
    Alcotest.test_case "psi null delivery" `Quick psi_null_delivery;
    Alcotest.test_case "promotable chains" `Quick promotable;
    Alcotest.test_case "ineffectual site deleted" `Quick ineffectual_site;
    Alcotest.test_case "ineffectual guard dropped" `Quick droppable_guard;
    Alcotest.test_case "psi passes preserve semantics" `Quick
      psi_passes_preserve;
    Alcotest.test_case "mutation: enumerator disproves bogus verdicts" `Quick
      mutation_enumerator_catches;
    Alcotest.test_case "mutation: unhooked deletions still caught" `Quick
      mutation_caught_unhooked;
    Alcotest.test_case "pass ids round-trip" `Quick pass_id_roundtrip;
    Alcotest.test_case "enumerator across chunks" `Quick
      enumerator_across_chunks;
    Alcotest.test_case "enumerator pinned" `Quick enumerator_pinned;
  ]
