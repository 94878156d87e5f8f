let construct cfg =
  Cfg.prune_unreachable cfg;
  let dom = Dom.of_cfg cfg in
  let defs = Cfg.defs cfg in
  (* Parameters count as defined in the entry block. *)
  let defs =
    List.fold_left
      (fun m p ->
        let s = Option.value ~default:Label.Set.empty (Temp.Map.find_opt p m) in
        Temp.Map.add p (Label.Set.add cfg.Cfg.entry s) m)
      defs cfg.Cfg.params
  in
  let liveness = Liveness.compute cfg in
  (* Phase 1: phi insertion at iterated dominance frontiers, pruned by
     liveness. *)
  let phis : (Label.t, (Temp.t, Temp.t list ref) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let phi_tbl l =
    match Hashtbl.find_opt phis l with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 4 in
        Hashtbl.replace phis l t;
        t
  in
  Temp.Map.iter
    (fun v def_blocks ->
      if Label.Set.cardinal def_blocks >= 1 then begin
        let work = Queue.create () in
        Label.Set.iter (fun l -> Queue.add l work) def_blocks;
        let has_phi = Hashtbl.create 4 in
        while not (Queue.is_empty work) do
          let x = Queue.pop work in
          List.iter
            (fun y ->
              if
                (not (Hashtbl.mem has_phi y))
                && Temp.Set.mem v (Liveness.live_in liveness y)
              then begin
                Hashtbl.replace has_phi y ();
                Hashtbl.replace (phi_tbl y) v (ref []);
                if not (Label.Set.mem y def_blocks) then Queue.add y work
              end)
            (Dom.frontier dom x)
        done
      end)
    defs;
  (* Phase 2: renaming along the dominator tree. *)
  let stacks : (Temp.t, Temp.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let stack v =
    match Hashtbl.find_opt stacks v with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.replace stacks v s;
        s
  in
  let top v = match !(stack v) with x :: _ -> Some x | [] -> None in
  let fresh_version v =
    let nv = Temp.Gen.fresh cfg.Cfg.gen in
    let s = stack v in
    s := nv :: !s;
    nv
  in
  (* map: new phi dest per block per original var *)
  let phi_dests : (Label.t * Temp.t, Temp.t) Hashtbl.t = Hashtbl.create 16 in
  let rename_operand o =
    match o with
    | Tac.C _ -> o
    | Tac.T v -> ( match top v with Some nv -> Tac.T nv | None -> o)
  in
  (* Parameters keep their names: push them as their own version. *)
  List.iter (fun p -> (stack p) := [ p ]) cfg.Cfg.params;
  (* Renaming walk, recording phi arguments per incoming edge. *)
  let phi_args : (Label.t * Temp.t, (Label.t * Tac.operand) list ref) Hashtbl.t
      =
    Hashtbl.create 16
  in
  let rec walk2 l =
    let b = Cfg.block cfg l in
    let pushed = ref [] in
    let define v =
      let nv = fresh_version v in
      pushed := v :: !pushed;
      nv
    in
    (match Hashtbl.find_opt phis l with
    | None -> ()
    | Some tbl ->
        Hashtbl.iter
          (fun v _ -> Hashtbl.replace phi_dests (l, v) (define v))
          tbl);
    b.Cfg.instrs <-
      List.map
        (fun i ->
          let i = Tac.map_operands rename_operand i in
          match Tac.def i with
          | None -> i
          | Some d -> Tac.with_dst (define d) i)
        b.Cfg.instrs;
    b.Cfg.term <-
      (match b.Cfg.term with
      | Tac.Jmp _ as t -> t
      | Tac.Cbr r -> (
          match top r.c with
          | Some nc -> Tac.Cbr { r with c = nc }
          | None -> Tac.Cbr r)
      | Tac.Ret None -> Tac.Ret None
      | Tac.Ret (Some o) -> Tac.Ret (Some (rename_operand o)));
    List.iter
      (fun s ->
        match Hashtbl.find_opt phis s with
        | None -> ()
        | Some tbl ->
            Hashtbl.iter
              (fun v _ ->
                let args =
                  match Hashtbl.find_opt phi_args (s, v) with
                  | Some r -> r
                  | None ->
                      let r = ref [] in
                      Hashtbl.replace phi_args (s, v) r;
                      r
                in
                let operand =
                  match top v with Some nv -> Tac.T nv | None -> Tac.C 0L
                in
                args := (l, operand) :: !args)
              tbl)
      (Cfg.succs cfg l);
    List.iter walk2 (Dom.children dom l);
    List.iter
      (fun v ->
        let s = stack v in
        match !s with [] -> () | _ :: tl -> s := tl)
      !pushed
  in
  walk2 cfg.Cfg.entry;
  (* materialize phi instructions at block heads *)
  Hashtbl.iter
    (fun l tbl ->
      let b = Cfg.block cfg l in
      let new_phis =
        Hashtbl.fold
          (fun v _ acc ->
            let dst = Hashtbl.find phi_dests (l, v) in
            let args =
              match Hashtbl.find_opt phi_args (l, v) with
              | Some r -> List.rev !r
              | None -> []
            in
            Tac.Phi { dst; args } :: acc)
          tbl []
      in
      b.Cfg.instrs <- new_phis @ b.Cfg.instrs)
    phis

(* Splitting the edge l -> s puts the new block in l's place among s's
   predecessors, so every count the loop reads stays as the table built
   up front has it. *)
let split_critical_edges cfg =
  let labels = Cfg.rpo cfg in
  let preds = Cfg.pred_table cfg in
  let counter = ref 0 in
  List.iter
    (fun l ->
      let b = Cfg.block cfg l in
      let succs = Tac.term_succs b.Cfg.term in
      if List.length succs > 1 then
        List.iter
          (fun s ->
            let sb = Cfg.block cfg s in
            let has_phi =
              List.exists
                (function Tac.Phi _ -> true | _ -> false)
                sb.Cfg.instrs
            in
            if has_phi && List.length (preds s) > 1 then begin
              incr counter;
              let nl = Printf.sprintf "%s.split%d" l !counter in
              Cfg.add_block cfg
                { Cfg.label = nl; instrs = []; term = Tac.Jmp s };
              (* redirect the edge l -> s through nl *)
              b.Cfg.term <-
                (match b.Cfg.term with
                | Tac.Cbr r ->
                    Tac.Cbr
                      {
                        r with
                        if_true =
                          (if Label.equal r.if_true s then nl else r.if_true);
                        if_false =
                          (if Label.equal r.if_false s then nl else r.if_false);
                      }
                | Tac.Jmp _ -> Tac.Jmp nl
                | Tac.Ret _ as t -> t);
              (* fix phi predecessor labels in s *)
              sb.Cfg.instrs <-
                List.map
                  (function
                    | Tac.Phi p ->
                        Tac.Phi
                          {
                            p with
                            args =
                              List.map
                                (fun (pl, o) ->
                                  if Label.equal pl l then (nl, o) else (pl, o))
                                p.args;
                          }
                    | i -> i)
                  sb.Cfg.instrs
            end)
          succs)
    labels

(* Emit a parallel copy set [(dst, src); ...] as a sequence of moves,
   breaking dependency cycles (the classic swap problem) with a fresh
   temporary. *)
let sequentialize_copies gen copies =
  let copies =
    List.filter
      (fun (d, s) ->
        match s with Tac.T t -> not (Temp.equal d t) | Tac.C _ -> true)
      copies
  in
  let pending = ref copies in
  let out = ref [] in
  let emit d s = out := Tac.Un { dst = d; op = Edge_isa.Opcode.Mov; a = s } :: !out in
  let src_reads t =
    List.exists
      (fun (_, s) -> match s with Tac.T x -> Temp.equal x t | Tac.C _ -> false)
      !pending
  in
  let progress = ref true in
  while !pending <> [] do
    if !progress then begin
      progress := false;
      let ready, blocked =
        List.partition (fun (d, _) -> not (src_reads d)) !pending
      in
      if ready <> [] then begin
        List.iter (fun (d, s) -> emit d s) ready;
        pending := blocked;
        progress := true
      end
      else pending := blocked
    end
    else begin
      (* all remaining copies form cycles: break one with a temp *)
      match !pending with
      | [] -> ()
      | (d, s) :: rest ->
          let tmp = Temp.Gen.fresh gen in
          emit tmp (Tac.T d);
          (* redirect uses of d as a source to tmp *)
          pending :=
            (d, s)
            :: List.map
                 (fun (d', s') ->
                   match s' with
                   | Tac.T x when Temp.equal x d -> (d', Tac.T tmp)
                   | _ -> (d', s'))
                 rest;
          progress := true
    end
  done;
  List.rev !out

let destruct cfg =
  split_critical_edges cfg;
  let labels = Cfg.rpo cfg in
  (* collect parallel copies per predecessor edge, then sequentialize *)
  let edge_copies : (Label.t, (Temp.t * Tac.operand) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun l ->
      let b = Cfg.block cfg l in
      let phis, rest =
        List.partition
          (function Tac.Phi _ -> true | Tac.Bin _ | Tac.Fbin _ | Tac.Cmp _
            | Tac.Un _ | Tac.Load _ | Tac.Store _ -> false)
          b.Cfg.instrs
      in
      if phis <> [] then begin
        b.Cfg.instrs <- rest;
        List.iter
          (function
            | Tac.Phi { dst; args } ->
                List.iter
                  (fun (pl, o) ->
                    let r =
                      match Hashtbl.find_opt edge_copies pl with
                      | Some r -> r
                      | None ->
                          let r = ref [] in
                          Hashtbl.replace edge_copies pl r;
                          r
                    in
                    r := (dst, o) :: !r)
                  args
            | Tac.Bin _ | Tac.Fbin _ | Tac.Cmp _ | Tac.Un _ | Tac.Load _
            | Tac.Store _ ->
                ())
          phis
      end)
    labels;
  Hashtbl.iter
    (fun pl copies ->
      let pb = Cfg.block cfg pl in
      pb.Cfg.instrs <-
        pb.Cfg.instrs @ sequentialize_copies cfg.Cfg.gen (List.rev !copies))
    edge_copies

let check cfg =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let seen = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace seen p cfg.Cfg.entry) cfg.Cfg.params;
  Cfg.iter_instrs cfg (fun l i ->
      match Tac.def i with
      | None -> ()
      | Some d ->
          if Hashtbl.mem seen d then err "temp t%d defined twice" d
          else Hashtbl.replace seen d l);
  let dom = Dom.of_cfg cfg in
  let def_block = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace def_block p cfg.Cfg.entry) cfg.Cfg.params;
  Cfg.iter_instrs cfg (fun l i ->
      Option.iter (fun d -> Hashtbl.replace def_block d l) (Tac.def i));
  Cfg.iter_instrs cfg (fun l i ->
      match i with
      | Tac.Phi _ -> ()
      | _ ->
          List.iter
            (fun u ->
              match Hashtbl.find_opt def_block u with
              | None -> err "use of undefined temp t%d in %s" u l
              | Some dl ->
                  if not (Dom.dominates dom dl l) then
                    err "t%d used in %s but defined in non-dominating %s" u l
                      dl)
            (Tac.uses i));
  match !errs with [] -> Ok () | es -> Error (List.rev es)
