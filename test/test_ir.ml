module Cfg = Edge_ir.Cfg
module Tac = Edge_ir.Tac
module Dom = Edge_ir.Dom
module Temp = Edge_ir.Temp
module Label = Edge_ir.Label
module Liveness = Edge_ir.Liveness
module O = Edge_isa.Opcode

let check = Alcotest.(check bool)

(* the classic diamond-with-loop CFG used across these tests:
   entry -> cond; cond -> (a | b); a -> join; b -> join;
   join -> (cond | exit) *)
let build_loop_cfg () =
  let gen = Temp.Gen.create () in
  let t n = n in
  List.iter (fun n -> Temp.Gen.next_above gen n) [ 10 ];
  let cfg = Cfg.create ~fname:"f" ~params:[ t 0 ] ~entry:"entry" ~gen in
  Cfg.add_block cfg
    {
      Cfg.label = "entry";
      instrs = [ Tac.Un { dst = 1; op = O.Mov; a = Tac.C 0L } ];
      term = Tac.Jmp "cond";
    };
  Cfg.add_block cfg
    {
      Cfg.label = "cond";
      instrs = [ Tac.Cmp { dst = 2; cond = O.Lt; fp = false; a = Tac.T 1; b = Tac.T 0 } ];
      term = Tac.Cbr { c = 2; if_true = "a"; if_false = "exit" };
    };
  Cfg.add_block cfg
    {
      Cfg.label = "a";
      instrs = [ Tac.Cmp { dst = 3; cond = O.Gt; fp = false; a = Tac.T 1; b = Tac.C 5L } ];
      term = Tac.Cbr { c = 3; if_true = "b"; if_false = "c" };
    };
  Cfg.add_block cfg
    {
      Cfg.label = "b";
      instrs = [ Tac.Bin { dst = 4; op = O.Add; a = Tac.T 1; b = Tac.C 2L } ];
      term = Tac.Jmp "join";
    };
  Cfg.add_block cfg
    {
      Cfg.label = "c";
      instrs = [ Tac.Bin { dst = 4; op = O.Add; a = Tac.T 1; b = Tac.C 1L } ];
      term = Tac.Jmp "join";
    };
  Cfg.add_block cfg
    {
      Cfg.label = "join";
      instrs = [ Tac.Un { dst = 1; op = O.Mov; a = Tac.T 4 } ];
      term = Tac.Jmp "cond";
    };
  Cfg.add_block cfg
    { Cfg.label = "exit"; instrs = []; term = Tac.Ret (Some (Tac.T 1)) };
  cfg

let rpo_order () =
  let cfg = build_loop_cfg () in
  let order = Cfg.rpo cfg in
  check "entry first" true (List.hd order = "entry");
  check "all blocks" true (List.length order = 7);
  let pos l = Option.get (List.find_index (String.equal l) order) in
  check "entry before cond" true (pos "entry" < pos "cond");
  check "a before join" true (pos "a" < pos "join")

(* naive dominance: remove the node, test reachability *)
let naive_dominates cfg a b =
  if Label.equal a b then true
  else begin
    let visited = Hashtbl.create 16 in
    let rec dfs l =
      if (not (Hashtbl.mem visited l)) && not (Label.equal l a) then begin
        Hashtbl.add visited l ();
        List.iter dfs (Cfg.succs cfg l)
      end
    in
    dfs cfg.Cfg.entry;
    not (Hashtbl.mem visited b)
  end

let dominators_agree what cfg =
  let dom = Dom.of_cfg cfg in
  let labels = Cfg.rpo cfg in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let fast = Dom.dominates dom a b in
          let slow = naive_dominates cfg a b in
          if fast <> slow then
            Alcotest.failf "%s: dominates %s %s: fast=%b naive=%b" what a b
              fast slow)
        labels)
    labels

(* the lowered CFG of every registry workload and example kernel *)
let kernel_cfgs () =
  let lower what ast =
    match Edge_lang.Lower.lower ast with
    | Ok cfg -> (what, cfg)
    | Error e -> Alcotest.failf "%s: lower: %s" what e
  in
  List.map
    (fun (w : Edge_workloads.Workload.t) ->
      lower w.Edge_workloads.Workload.name
        (Result.get_ok (Edge_workloads.Workload.parse w)))
    Edge_workloads.Registry.all
  @ List.map
      (fun k ->
        lower k
          (Result.get_ok
             (Edge_lang.Parser.parse (Test_support.Goldens.kernel_source k))))
      Test_support.Goldens.kernels

let dominators_match_naive () =
  dominators_agree "loop cfg" (build_loop_cfg ());
  List.iter
    (fun (what, cfg) ->
      dominators_agree (what ^ " lowered") cfg;
      Edge_ir.Ssa.construct cfg;
      dominators_agree (what ^ " in ssa") cfg)
    (kernel_cfgs ())

(* the naive predecessor list: every block whose terminator names [l],
   in ascending label order, each once *)
let naive_preds cfg l =
  List.filter (fun p -> List.mem l (Cfg.succs cfg p)) (Cfg.labels cfg)

let preds_agree what cfg =
  let table = Cfg.pred_table cfg in
  let labels = Cfg.labels cfg in
  List.iter
    (fun l ->
      let fast = table l and slow = naive_preds cfg l in
      if fast <> slow then
        Alcotest.failf "%s: preds %s: table [%s], naive [%s]" what l
          (String.concat " " fast) (String.concat " " slow))
    (List.sort_uniq Label.compare
       (labels @ List.concat_map (Cfg.succs cfg) labels))

let pred_table_matches_naive () =
  (* a Cbr with both arms on one label names its block once *)
  let cfg =
    Cfg.create ~fname:"f" ~params:[ 0 ] ~entry:"entry" ~gen:(Temp.Gen.create ())
  in
  Cfg.add_block cfg
    {
      Cfg.label = "entry";
      instrs = [];
      term = Tac.Cbr { c = 0; if_true = "join"; if_false = "join" };
    };
  Cfg.add_block cfg { Cfg.label = "a"; instrs = []; term = Tac.Jmp "join" };
  Cfg.add_block cfg { Cfg.label = "join"; instrs = []; term = Tac.Ret None };
  let table = Cfg.pred_table cfg in
  check "shared Cbr target named once" true (table "join" = [ "a"; "entry" ]);
  check "no predecessors" true (table "entry" = []);
  preds_agree "shared Cbr target" cfg;
  preds_agree "loop cfg" (build_loop_cfg ());
  (* through the pipeline: lowered, in SSA, after the classic
     optimizations (which end in merge_chains), after SSA destruction
     (critical edges split) *)
  List.iter
    (fun (what, cfg) ->
      preds_agree (what ^ " lowered") cfg;
      Edge_ir.Ssa.construct cfg;
      preds_agree (what ^ " in ssa") cfg;
      Dfp.Opt_classic.run cfg;
      preds_agree (what ^ " after merge_chains") cfg;
      Edge_ir.Ssa.destruct cfg;
      preds_agree (what ^ " destructed") cfg)
    (kernel_cfgs ())

(* Opt_classic prunes in its first round: a def whose one use sits in
   an unreachable block goes in the second round, not left for the
   final pruning after the rounds have stopped *)
let opt_classic_prunes_first_round () =
  let cfg =
    Cfg.create ~fname:"f" ~params:[ 0; 1 ] ~entry:"entry"
      ~gen:(Temp.Gen.create ())
  in
  Cfg.add_block cfg
    {
      Cfg.label = "entry";
      instrs =
        [
          Tac.Un { dst = 2; op = O.Mov; a = Tac.T 1 };
          Tac.Bin { dst = 3; op = O.Add; a = Tac.T 0; b = Tac.T 2 };
        ];
      term = Tac.Ret (Some (Tac.T 0));
    };
  Cfg.add_block cfg
    {
      Cfg.label = "unreachable";
      instrs =
        [ Tac.Store { width = O.W8; addr = Tac.T 0; off = 0; v = Tac.T 3 } ];
      term = Tac.Ret None;
    };
  Dfp.Opt_classic.run cfg;
  check "unreachable block pruned" true (Cfg.labels cfg = [ "entry" ]);
  check "the add it read removed" true ((Cfg.block cfg "entry").Cfg.instrs = [])

let dominator_tree_shape () =
  let cfg = build_loop_cfg () in
  let dom = Dom.of_cfg cfg in
  check "idom cond = entry" true (Dom.idom dom "cond" = Some "entry");
  check "idom join = a" true (Dom.idom dom "join" = Some "a");
  check "idom exit = cond" true (Dom.idom dom "exit" = Some "cond");
  check "frontier of b contains join" true (List.mem "join" (Dom.frontier dom "b"));
  check "frontier of join contains cond" true
    (List.mem "cond" (Dom.frontier dom "join"))

let liveness_loop () =
  let cfg = build_loop_cfg () in
  let live = Liveness.compute cfg in
  check "t0 live into cond" true (Temp.Set.mem 0 (Liveness.live_in live "cond"));
  check "t1 live into cond" true (Temp.Set.mem 1 (Liveness.live_in live "cond"));
  check "t4 live out of a" true (Temp.Set.mem 4 (Liveness.live_out live "b"));
  check "t4 dead into cond" false (Temp.Set.mem 4 (Liveness.live_in live "cond"))

(* small CFG interpreter used to check semantic preservation *)
let run_cfg cfg args =
  let env = Hashtbl.create 32 in
  List.iteri (fun i p -> Hashtbl.replace env p (List.nth args i)) cfg.Cfg.params;
  let value = function
    | Tac.C c -> c
    | Tac.T t -> ( match Hashtbl.find_opt env t with Some v -> v | None -> 0L)
  in
  let rec exec label prev fuel =
    if fuel = 0 then failwith "fuel" ;
    let b = Cfg.block cfg label in
    List.iter
      (fun i ->
        match i with
        | Tac.Bin { dst; op; a; b } ->
            let v =
              match op with
              | O.Add -> Int64.add (value a) (value b)
              | O.Sub -> Int64.sub (value a) (value b)
              | _ -> Int64.mul (value a) (value b)
            in
            Hashtbl.replace env dst v
        | Tac.Cmp { dst; cond; a; b; _ } ->
            let c = Int64.compare (value a) (value b) in
            let r =
              match cond with
              | O.Lt -> c < 0
              | O.Gt -> c > 0
              | O.Eq -> c = 0
              | _ -> c <> 0
            in
            Hashtbl.replace env dst (if r then 1L else 0L)
        | Tac.Un { dst; a; _ } -> Hashtbl.replace env dst (value a)
        | Tac.Phi { dst; args } ->
            let v =
              List.assoc_opt prev args |> Option.map value
              |> Option.value ~default:0L
            in
            Hashtbl.replace env dst v
        | Tac.Fbin _ | Tac.Load _ | Tac.Store _ -> ())
      b.Cfg.instrs;
    match b.Cfg.term with
    | Tac.Jmp l -> exec l label (fuel - 1)
    | Tac.Cbr { c; if_true; if_false } ->
        let t = Hashtbl.find_opt env c |> Option.value ~default:0L in
        exec (if t <> 0L then if_true else if_false) label (fuel - 1)
    | Tac.Ret (Some o) -> value o
    | Tac.Ret None -> 0L
  in
  exec cfg.Cfg.entry cfg.Cfg.entry 10_000

let ssa_roundtrip () =
  let cfg = build_loop_cfg () in
  let mem0 = run_cfg cfg [ 10L ] in
  Edge_ir.Ssa.construct cfg;
  (match Edge_ir.Ssa.check cfg with
  | Ok () -> ()
  | Error es -> Alcotest.failf "ssa check: %s" (String.concat "; " es));
  let has_phi =
    List.exists
      (fun l ->
        List.exists
          (function Tac.Phi _ -> true | _ -> false)
          (Cfg.block cfg l).Cfg.instrs)
      (Cfg.rpo cfg)
  in
  check "loop header got phis" true has_phi;
  Edge_ir.Ssa.destruct cfg;
  let no_phi =
    List.for_all
      (fun l ->
        List.for_all
          (function Tac.Phi _ -> false | _ -> true)
          (Cfg.block cfg l).Cfg.instrs)
      (Cfg.rpo cfg)
  in
  check "destruct removed phis" true no_phi;
  let mem1 = run_cfg cfg [ 10L ] in
  check "ssa roundtrip preserves semantics" true (mem0 = mem1)

let hblock_helpers () =
  let open Edge_ir.Hblock in
  let h =
    {
      hname = "h";
      body =
        [
          { hop = Op (Tac.Cmp { dst = 1; cond = O.Gt; fp = false; a = Tac.T 0; b = Tac.C 0L }); guard = None };
          { hop = Op (Tac.Bin { dst = 2; op = O.Add; a = Tac.T 0; b = Tac.C 1L }); guard = Some (singleton 1 true) };
          { hop = Op (Tac.Bin { dst = 2; op = O.Sub; a = Tac.T 0; b = Tac.C 1L }); guard = Some (singleton 1 false) };
          { hop = Op (Tac.Store { width = O.W8; addr = Tac.T 0; off = 0; v = Tac.T 2 }); guard = None };
          { hop = Null_write 2; guard = Some (singleton 1 false) };
        ];
      hexits = [ { eguard = None; etarget = None } ];
      houts = [ (2, 2) ];
    }
  in
  check "store count" true (store_count h = 1);
  check "predicated count" true (predicated_count h = 3);
  let sites = def_sites h in
  check "t2 has two defs" true (List.length (Temp.Map.find 2 sites) = 2);
  check "guard uses" true (hop_uses (List.nth h.body 1) = [ 0; 1 ])

(* a copy owns its blocks and its temp supply: temps drawn and blocks
   edited on either side do not show in the other *)
let copy_independent () =
  let cfg = build_loop_cfg () in
  let copy = Cfg.copy cfg in
  let t_orig = Temp.Gen.fresh cfg.Cfg.gen in
  let t_copy = Temp.Gen.fresh copy.Cfg.gen in
  check "copy draws what the original drew" true (t_orig = t_copy);
  ignore (Temp.Gen.fresh copy.Cfg.gen);
  check "copy's draws leave the original" true
    (Temp.Gen.fresh cfg.Cfg.gen = t_orig + 1);
  ignore (Temp.Gen.fresh cfg.Cfg.gen);
  check "original's draws leave the copy" true
    (Temp.Gen.fresh copy.Cfg.gen = t_copy + 2);
  (Cfg.block copy "b").Cfg.instrs <- [];
  check "copy's edit leaves the original" true
    ((Cfg.block cfg "b").Cfg.instrs <> []);
  (Cfg.block cfg "c").Cfg.term <- Tac.Ret None;
  check "original's edit leaves the copy" true
    ((Cfg.block copy "c").Cfg.term = Tac.Jmp "join");
  Cfg.remove_block copy "exit";
  check "removing from the copy leaves the original" true
    (Cfg.block_opt cfg "exit" <> None)

(* Seeded random formulas over up to 10 variables, built through the
   BDD package and evaluated directly: every result agrees with its
   formula on all 2^k assignments, formulas with one truth table get
   one uid and formulas with different tables different uids, and
   [any_sat] finds a satisfying assignment exactly when [sat] holds.
   The tables are keyed on packed ints, so a budget whose uids do not
   fit the packing is refused. *)
type formula =
  | Var of int
  | Nvar of int
  | Conj of formula * formula
  | Disj of formula * formula
  | Neg of formula

let bdd_truth_tables () =
  let module Bdd = Edge_ir.Bdd in
  let rng = Random.State.make [| 23 |] in
  let rec gen k depth =
    if depth = 0 || Random.State.int rng 4 = 0 then
      let v = Random.State.int rng k in
      if Random.State.bool rng then Var v else Nvar v
    else
      match Random.State.int rng 3 with
      | 0 -> Conj (gen k (depth - 1), gen k (depth - 1))
      | 1 -> Disj (gen k (depth - 1), gen k (depth - 1))
      | _ -> Neg (gen k (depth - 1))
  in
  let rec eval env = function
    | Var v -> env v
    | Nvar v -> not (env v)
    | Conj (a, b) -> eval env a && eval env b
    | Disj (a, b) -> eval env a || eval env b
    | Neg a -> not (eval env a)
  in
  let rec build m = function
    | Var v -> Bdd.var m v
    | Nvar v -> Bdd.nvar m v
    | Conj (a, b) -> Bdd.conj m (build m a) (build m b)
    | Disj (a, b) -> Bdd.disj m (build m a) (build m b)
    | Neg a -> Bdd.neg m (build m a)
  in
  let rec walk env = function
    | Bdd.False -> false
    | Bdd.True -> true
    | Bdd.Node { var; lo; hi; _ } -> walk env (if env var then hi else lo)
  in
  let bit a v = a land (1 lsl v) <> 0 in
  for _ = 1 to 60 do
    let k = 1 + Random.State.int rng 10 in
    let m = Bdd.create () in
    let uid_of_table = Hashtbl.create 64 and table_of_uid = Hashtbl.create 64 in
    for _ = 1 to 40 do
      let f = gen k 7 in
      let n = build m f in
      let table =
        String.init (1 lsl k) (fun a -> if eval (bit a) f then '1' else '0')
      in
      for a = 0 to (1 lsl k) - 1 do
        if walk (bit a) n <> (table.[a] = '1') then
          Alcotest.failf "k=%d: the BDD and its formula differ on %d" k a
      done;
      let uid = Bdd.uid n in
      (match Hashtbl.find_opt uid_of_table table with
      | Some u -> Alcotest.(check int) "one truth table, one uid" u uid
      | None -> Hashtbl.replace uid_of_table table uid);
      (match Hashtbl.find_opt table_of_uid uid with
      | Some t -> Alcotest.(check string) "one uid, one truth table" t table
      | None -> Hashtbl.replace table_of_uid uid table);
      match Bdd.any_sat n with
      | None -> check "no assignment only when unsatisfiable" false (Bdd.sat n)
      | Some pairs ->
          check "an assignment only when satisfiable" true (Bdd.sat n);
          let env v = Option.value ~default:false (List.assoc_opt v pairs) in
          check "the assignment satisfies the formula" true (eval env f)
    done
  done;
  ignore (Bdd.create ~budget:((1 lsl 21) - 2) ());
  match Bdd.create ~budget:(1 lsl 21) () with
  | _ -> Alcotest.fail "a budget of 2^21 nodes was accepted"
  | exception Invalid_argument _ -> ()

let tests =
  [
    Alcotest.test_case "rpo order" `Quick rpo_order;
    Alcotest.test_case "dominators vs naive" `Quick dominators_match_naive;
    Alcotest.test_case "predecessor table vs naive" `Quick pred_table_matches_naive;
    Alcotest.test_case "dominator tree shape" `Quick dominator_tree_shape;
    Alcotest.test_case "classic opts prune in the first round" `Quick
      opt_classic_prunes_first_round;
    Alcotest.test_case "liveness over loop" `Quick liveness_loop;
    Alcotest.test_case "ssa construct/destruct" `Quick ssa_roundtrip;
    Alcotest.test_case "hblock helpers" `Quick hblock_helpers;
    Alcotest.test_case "copy independent" `Quick copy_independent;
    Alcotest.test_case "bdd truth tables" `Quick bdd_truth_tables;
  ]
