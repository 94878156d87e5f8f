module Cfg = Edge_ir.Cfg
module Tac = Edge_ir.Tac
module Temp = Edge_ir.Temp
module Label = Edge_ir.Label
module Dom = Edge_ir.Dom
module Liveness = Edge_ir.Liveness
module Hb = Edge_ir.Hblock
module Opcode = Edge_isa.Opcode

type region = { head : Label.t; blocks : Label.Set.t }

let exit_node = "@EXIT"

(* Internal edges stay inside the region and are not back edges to the
   head; everything else is an exit edge. *)
let internal_edge region (a, s) =
  ignore a;
  Label.Set.mem s region.blocks && not (Label.equal s region.head)

let exit_edge_live cfg liveness ~src ~target ~retq =
  match target with
  | None -> Temp.Set.singleton retq
  | Some s -> Liveness.live_on_edge liveness cfg src s

(* Topological order of region blocks ignoring back edges to the head. *)
let topo_order cfg region =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs l =
    if (not (Hashtbl.mem visited l)) && Label.Set.mem l region.blocks then begin
      Hashtbl.add visited l ();
      List.iter
        (fun s -> if internal_edge region (l, s) then dfs s)
        (Cfg.succs cfg l);
      order := l :: !order
    end
  in
  dfs region.head;
  !order

(* The region subgraph, built once: [succs l] lists the internal
   successors of block [l], behind [exit_node] when [l] has an exit edge
   or returns; [preds x] lists, in topological order and each once, the
   blocks with an edge to node [x], the virtual exit included. *)
let region_edges cfg region order =
  let succ_tbl = Hashtbl.create 16 in
  List.iter
    (fun l ->
      let b = Cfg.block cfg l in
      let s = Tac.term_succs b.Cfg.term in
      let internal = List.filter (fun x -> internal_edge region (l, x)) s in
      let has_exit =
        List.exists (fun x -> not (internal_edge region (l, x))) s
        || (match b.Cfg.term with
           | Tac.Ret _ -> true
           | Tac.Jmp _ | Tac.Cbr _ -> false)
      in
      Hashtbl.replace succ_tbl l
        (if has_exit then exit_node :: internal else internal))
    order;
  let succs l =
    if Label.equal l exit_node then [] else Hashtbl.find succ_tbl l
  in
  let pred_tbl = Hashtbl.create 16 in
  List.iter
    (fun p ->
      List.iter
        (fun x ->
          match Hashtbl.find_opt pred_tbl x with
          | Some (q :: _) when Label.equal q p -> ()
          | ps -> Hashtbl.replace pred_tbl x (p :: Option.value ~default:[] ps))
        (succs p))
    (List.rev order);
  let preds x = Option.value ~default:[] (Hashtbl.find_opt pred_tbl x) in
  (succs, preds)

(* Post-dominators of the region subgraph, rooted at a virtual exit that
   absorbs every exit edge. *)
let region_postdom (succs, preds) =
  (* reverse postorder of the reversed graph from the virtual exit *)
  let visited = Hashtbl.create 16 in
  let post = ref [] in
  let rec dfs l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.add visited l ();
      List.iter dfs (preds l);
      post := l :: !post
    end
  in
  dfs exit_node;
  Dom.compute { Dom.g_nodes = !post; g_preds = succs }

type edge_guard = Hb.guard option
(* [None]: the edge is traversed whenever its source executes *)

type conv = {
  cfg : Cfg.t;
  region : region;
  mutable body : Hb.hinstr list;  (* reversed *)
  guards : (Label.t, Hb.guard option) Hashtbl.t;
  edge_guards : (Label.t * Label.t, edge_guard) Hashtbl.t;
  out_maps : (Label.t, Temp.t Temp.Map.t) Hashtbl.t;
  mutable defined : Temp.Set.t;  (* canonical temps defined in region *)
  mutable exits :
    (Label.t * Label.t option * edge_guard) list;
    (* (source, target (None = halt), guard), in discovery order *)
  mutable stores : (Label.t * int) list;
    (* (source block, store index) per emitted store, body order *)
  mutable cond_edges : (Label.t * Label.t * Hb.guard) list;
    (* conditional edges (src, dst-or-virtual-exit, edge guard) *)
  def_guard : (Temp.t, [ `One of Hb.guard option | `Many ]) Hashtbl.t;
    (* guard of each temp's definition, for branch-predicate gating *)
}

let emit cv hi =
  (match Hb.hop_def hi.Hb.hop with
  | Some d ->
      Hashtbl.replace cv.def_guard d
        (match Hashtbl.find_opt cv.def_guard d with
        | None -> `One hi.Hb.guard
        | Some _ -> `Many)
  | None -> ());
  cv.body <- hi :: cv.body

let fresh cv = Temp.Gen.fresh cv.cfg.Cfg.gen

let version map x = Option.value ~default:x (Temp.Map.find_opt x map)

(* Combine a set of control-dependence edge guards into one instruction
   guard, materializing a combining movi chain for mixed polarities. *)
let combine_guards cv (gs : edge_guard list) : Hb.guard option =
  let gs = List.sort_uniq compare gs in
  match gs with
  | [] -> None
  | [ g ] -> g
  | _ ->
      if List.mem None gs then None
      else
        let all = List.filter_map Fun.id gs in
        let pols = List.sort_uniq compare (List.map (fun g -> g.Hb.gpol) all) in
        let single_pred g =
          match g.Hb.gpreds with [ p ] -> Some (p, g.Hb.gpol) | _ -> None
        in
        let singles = List.map single_pred all in
        if List.for_all Option.is_some singles && List.length pols = 1 then
          Some
            {
              Hb.gpol = List.hd pols;
              gpreds = List.filter_map (Option.map fst) singles;
            }
        else begin
          (* mixed polarities or nested OR guards: generate a combining
             predicate (Figure 6d) *)
          let c = fresh cv in
          List.iter
            (fun g ->
              emit cv
                {
                  Hb.hop = Hb.Op (Tac.Un { dst = c; op = Opcode.Mov; a = Tac.C 1L });
                  guard = Some g;
                })
            all;
          cv.defined <- Temp.Set.add c cv.defined;
          Some (Hb.singleton c true)
        end

let convert ?m cfg liveness region ~retq =
  let order = topo_order cfg region in
  if
    not
      (List.length order = Label.Set.cardinal region.blocks
      && List.for_all (fun l -> Label.Set.mem l region.blocks) order)
  then Error (Printf.sprintf "region %s: unreachable or cyclic blocks" region.head)
  else begin
    let ((_, region_preds) as edges) = region_edges cfg region order in
    let pdom = region_postdom edges in
    let cv =
      {
        cfg;
        region;
        body = [];
        guards = Hashtbl.create 16;
        edge_guards = Hashtbl.create 16;
        out_maps = Hashtbl.create 16;
        defined = Temp.Set.empty;
        exits = [];
        stores = [];
        cond_edges = [];
        def_guard = Hashtbl.create 32;
      }
    in
    (* control-dependence sets, computed as edges are discovered; cd(B) is
       filled from branch edges of already-processed blocks, so compute
       structurally first: for branch edge (a -> s), every node from s up
       the postdominator tree until pdom(a) is control-dependent on it *)
    let cd : (Label.t, (Label.t * Label.t) list) Hashtbl.t = Hashtbl.create 16 in
    let record_cd (a, s) =
      let stop = Dom.idom pdom a in
      let rec walk x =
        let continue_walk =
          match stop with Some st -> not (Label.equal x st) | None -> true
        in
        if continue_walk && not (Label.equal x exit_node) then begin
          let prev = Option.value ~default:[] (Hashtbl.find_opt cd x) in
          if not (List.mem (a, s) prev) then
            Hashtbl.replace cd x ((a, s) :: prev);
          match Dom.idom pdom x with Some p -> walk p | None -> ()
        end
      in
      walk s
    in
    List.iter
      (fun a ->
        match (Cfg.block cfg a).Cfg.term with
        | Tac.Cbr { if_true; if_false; _ } when not (Label.equal if_true if_false)
          ->
            let node_of s = if internal_edge region (a, s) then s else exit_node in
            record_cd (a, node_of if_true);
            record_cd (a, node_of if_false)
        | Tac.Cbr _ | Tac.Jmp _ | Tac.Ret _ -> ())
      order;
    (* process blocks in topological order *)
    let errors = ref [] in
    List.iter
      (fun l ->
        let b = Cfg.block cfg l in
        (* 1. block guard from control-dependence edges *)
        let g =
          if Label.equal l region.head then None
          else
            let edges = Option.value ~default:[] (Hashtbl.find_opt cd l) in
            let egs =
              List.map
                (fun (a, s) ->
                  match Hashtbl.find_opt cv.edge_guards (a, s) with
                  | Some g -> g
                  | None -> None)
                edges
            in
            combine_guards cv egs
        in
        Hashtbl.replace cv.guards l g;
        (* 2. merge incoming version maps, emitting join moves *)
        let in_edges = region_preds l in
        let in_map =
          if Label.equal l region.head then Temp.Map.empty
          else begin
            let maps =
              List.map
                (fun p ->
                  ( p,
                    Option.value ~default:Temp.Map.empty
                      (Hashtbl.find_opt cv.out_maps p) ))
                in_edges
            in
            let all_temps =
              List.fold_left
                (fun acc (_, m) ->
                  Temp.Map.fold (fun k _ acc -> Temp.Set.add k acc) m acc)
                Temp.Set.empty maps
            in
            Temp.Set.fold
              (fun x acc ->
                let versions =
                  List.map (fun (p, m) -> (p, version m x)) maps
                in
                let distinct =
                  List.sort_uniq Temp.compare (List.map snd versions)
                in
                match distinct with
                | [] -> acc
                | [ v ] -> Temp.Map.add x v acc
                | _ ->
                    let xj = fresh cv in
                    List.iter
                      (fun (p, v) ->
                        let eg =
                          match Hashtbl.find_opt cv.edge_guards (p, l) with
                          | Some g -> g
                          | None -> None
                        in
                        emit cv
                          {
                            Hb.hop =
                              Hb.Op
                                (Tac.Un { dst = xj; op = Opcode.Mov; a = Tac.T v });
                            guard = eg;
                          })
                      versions;
                    Temp.Map.add x xj acc)
              all_temps Temp.Map.empty
          end
        in
        (* 3. rename and emit the block's instructions under guard g *)
        let map = ref in_map in
        let rename_op o =
          match o with
          | Tac.C _ -> o
          | Tac.T t -> Tac.T (version !map t)
        in
        List.iter
          (fun i ->
            match i with
            | Tac.Phi _ -> errors := "phi in region" :: !errors
            | _ ->
                let i = Tac.map_operands rename_op i in
                let i =
                  match Tac.def i with
                  | None -> i
                  | Some d ->
                      let v = fresh cv in
                      cv.defined <- Temp.Set.add d cv.defined;
                      map := Temp.Map.add d v !map;
                      Tac.with_dst v i
                in
                (match i with
                | Tac.Store _ -> cv.stores <- (l, List.length cv.stores) :: cv.stores
                | Tac.Bin _ | Tac.Fbin _ | Tac.Cmp _ | Tac.Un _ | Tac.Load _
                | Tac.Phi _ ->
                    ());
                emit cv { Hb.hop = Hb.Op i; guard = g })
          b.Cfg.instrs;
        Hashtbl.replace cv.out_maps l !map;
        (* 4. terminator: record edge guards and exits *)
        (match b.Cfg.term with
        | Tac.Jmp s ->
            if internal_edge region (l, s) then
              Hashtbl.replace cv.edge_guards (l, s) g
            else cv.exits <- (l, Some s, g) :: cv.exits
        | Tac.Cbr { c; if_true; if_false } ->
            let c' = version !map c in
            (* A guard predicate must be *delivered* exactly when this
               block executes, or OR-guards downstream could receive two
               matching tokens and nested guards could fire off-path. A
               condition temp qualifies when its single definition carries
               this block's guard; otherwise (live-in condition, reused
               test from a control-inequivalent block, joined value) a
               predicated gating test is inserted — the paper's
               "predicated test instructions" (Section 3.3). *)
            let c' =
              let qualified =
                match Hashtbl.find_opt cv.def_guard c' with
                | Some (`One dg) -> Hb.guard_equal dg g
                | Some `Many -> false
                | None -> (* live-in *) g = None
              in
              if qualified then c'
              else begin
                let gate = fresh cv in
                emit cv
                  {
                    Hb.hop =
                      Hb.Op
                        (Tac.Cmp
                           {
                             dst = gate;
                             cond = Opcode.Ne;
                             fp = false;
                             a = Tac.T c';
                             b = Tac.C 0L;
                           });
                    guard = g;
                  };
                cv.defined <- Temp.Set.add gate cv.defined;
                gate
              end
            in
            if Label.equal if_true if_false then begin
              if internal_edge region (l, if_true) then
                Hashtbl.replace cv.edge_guards (l, if_true) g
              else cv.exits <- (l, Some if_true, g) :: cv.exits
            end
            else begin
              let handle s pol =
                let eg = Hb.singleton c' pol in
                let node = if internal_edge region (l, s) then s else exit_node in
                cv.cond_edges <- (l, node, eg) :: cv.cond_edges;
                if internal_edge region (l, s) then
                  Hashtbl.replace cv.edge_guards (l, s) (Some eg)
                else cv.exits <- (l, Some s, Some eg) :: cv.exits
              in
              handle if_true true;
              handle if_false false
            end
        | Tac.Ret o ->
            (match o with
            | Some o ->
                let o' = rename_op o in
                let v = fresh cv in
                cv.defined <- Temp.Set.add retq cv.defined;
                map := Temp.Map.add retq v !map;
                Hashtbl.replace cv.out_maps l !map;
                emit cv
                  {
                    Hb.hop = Hb.Op (Tac.Un { dst = v; op = Opcode.Mov; a = o' });
                    guard = g;
                  }
            | None -> ());
            cv.exits <- (l, None, g) :: cv.exits))
      order;
    if !errors <> [] then Error (String.concat "; " !errors)
    else begin
      (* Store nullification (Section 4.2): a store guarded by block B must
         resolve as a null store on every execution that avoids B. The
         executions avoiding B are exactly those traversing a "divergence
         edge" — a conditional edge (a -> s) where B is reachable from [a]
         but not from [s] — and exactly one such edge fires per avoiding
         execution, so one Null_store per divergence edge is well-formed
         under the at-most-one-matching-predicate rule. *)
      let reach_cache : (Label.t, Label.Set.t) Hashtbl.t = Hashtbl.create 16 in
      let rec reachable_from l =
        match Hashtbl.find_opt reach_cache l with
        | Some s -> s
        | None ->
            (* guard against cycles (none should exist): seed with self *)
            Hashtbl.replace reach_cache l (Label.Set.singleton l);
            let s =
              List.fold_left
                (fun acc succ ->
                  if internal_edge region (l, succ) then
                    Label.Set.union acc (reachable_from succ)
                  else acc)
                (Label.Set.singleton l)
                (Cfg.succs cfg l)
            in
            Hashtbl.replace reach_cache l s;
            s
      in
      List.iter
        (fun (src_block, store_idx) ->
          List.iter
            (fun (a, s, eg) ->
              let dooms =
                (* an edge out of the store's own block cannot doom it:
                   the block, and hence the store, already executed *)
                (not (Label.equal a src_block))
                && Label.Set.mem src_block (reachable_from a)
                && (Label.equal s exit_node
                   || not (Label.Set.mem src_block (reachable_from s)))
              in
              if dooms then
                emit cv { Hb.hop = Hb.Null_store store_idx; guard = Some eg })
            cv.cond_edges)
        (List.rev cv.stores);
      let exits = List.rev cv.exits in
      (* 5. block outputs: for every canonical temp defined in the region
         and live across some exit, route the right version to a write *)
      let live_at =
        List.map
          (fun (src, target, eg) ->
            ( (src, target, eg),
              exit_edge_live cfg liveness ~src ~target ~retq ))
          exits
      in
      let out_candidates =
        List.fold_left
          (fun acc (_, live) -> Temp.Set.union acc live)
          Temp.Set.empty live_at
        |> Temp.Set.inter cv.defined
      in
      let houts = ref [] in
      let guarded_def_count = Hashtbl.create 16 in
      List.iter
        (fun hi ->
          match Hb.hop_def hi.Hb.hop with
          | Some d ->
              let cnt, guarded =
                Option.value ~default:(0, false)
                  (Hashtbl.find_opt guarded_def_count d)
              in
              Hashtbl.replace guarded_def_count d
                (cnt + 1, guarded || hi.Hb.guard <> None)
          | None -> ())
        cv.body;
      Temp.Set.iter
        (fun x ->
          let exits_info =
            List.map
              (fun ((src, target, eg), live) ->
                let m =
                  Option.value ~default:Temp.Map.empty
                    (Hashtbl.find_opt cv.out_maps src)
                in
                (eg, Temp.Set.mem x live, version m x, target))
              live_at
          in
          let live_exits = List.filter (fun (_, lv, _, _) -> lv) exits_info in
          let versions =
            List.sort_uniq Temp.compare
              (List.map (fun (_, _, v, _) -> v) live_exits)
          in
          let all_live = List.for_all (fun (_, lv, _, _) -> lv) exits_info in
          match versions with
          | [ v ]
            when all_live
                 && (match Hashtbl.find_opt guarded_def_count v with
                    | Some (1, false) -> true
                    | _ -> false) ->
              (* single unconditional definition reaching every exit *)
              houts := (x, v) :: !houts
          | _ ->
              let x_out = fresh cv in
              List.iter
                (fun (eg, lv, v, _) ->
                  if lv then
                    emit cv
                      {
                        Hb.hop =
                          Hb.Op
                            (Tac.Un { dst = x_out; op = Opcode.Mov; a = Tac.T v });
                        guard = eg;
                      }
                  else
                    emit cv { Hb.hop = Hb.Null_write x_out; guard = eg })
                exits_info;
              houts := (x, x_out) :: !houts)
        out_candidates;
      let hexits =
        List.map
          (fun (_, target, eg) ->
            {
              Hb.eguard = eg;
              etarget =
                (match target with
                | None -> None
                | Some s ->
                    (* exits to the head are the loop back edge *)
                    Some s);
            })
          exits
      in
      let h =
        {
          Hb.hname = region.head;
          body = List.rev cv.body;
          hexits;
          houts = List.rev !houts;
        }
      in
      (match m with
      | Some m ->
          Edge_obs.Metrics.incr m "pass.if_convert.hyperblocks";
          Edge_obs.Metrics.incr ~by:(List.length h.Hb.body) m
            "pass.if_convert.instrs";
          Edge_obs.Metrics.incr
            ~by:
              (List.length
                 (List.filter (fun hi -> Option.is_some hi.Hb.guard) h.Hb.body))
            m "pass.if_convert.guarded_instrs"
      | None -> ());
      Ok h
    end
  end
