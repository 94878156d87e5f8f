module Cfg = Edge_ir.Cfg
module Tac = Edge_ir.Tac
module Temp = Edge_ir.Temp
module Label = Edge_ir.Label
module Dom = Edge_ir.Dom
module Opcode = Edge_isa.Opcode

(* temps as the keys of an int-keyed table *)
module Tbl = Hashtbl.Make (struct
  type t = Temp.t

  let equal = Int.equal
  let hash t = t land max_int
end)

let same_operand a b =
  match (a, b) with
  | Tac.T x, Tac.T y -> Temp.equal x y
  | Tac.C x, Tac.C y -> Int64.equal x y
  | _ -> false

(* One round of constant/copy propagation over the blocks [labels].
   Returns whether it changed anything and whether it folded a [Cbr]
   into a [Jmp], the one change to the edges a round can make. *)
let propagate cfg labels =
  let changed = ref false and folded = ref false in
  (* substitution map from SSA defs *)
  let subst : Tac.operand Tbl.t = Tbl.create 64 in
  Cfg.iter_instrs cfg (fun _ i ->
      match i with
      | Tac.Un { dst; op = Opcode.Mov; a } -> Tbl.replace subst dst a
      (* constants fold with the machine's own semantics; division by
         zero is not folded (it must fault at run time) *)
      | Tac.Bin { dst; op; a = Tac.C a; b = Tac.C b } -> (
          match Opcode.ibinop op a b with
          | Some v -> Tbl.replace subst dst (Tac.C v)
          | None -> ())
      | Tac.Fbin { dst; op; a = Tac.C a; b = Tac.C b } ->
          Tbl.replace subst dst (Tac.C (Opcode.fbinop op a b))
      | Tac.Cmp { dst; cond; fp; a = Tac.C a; b = Tac.C b } ->
          let holds =
            if fp then Opcode.fcmp cond a b else Opcode.icmp cond a b
          in
          Tbl.replace subst dst (Tac.C (if holds then 1L else 0L))
      | Tac.Un { dst; op; a = Tac.C a } ->
          Tbl.replace subst dst (Tac.C (Opcode.unop op a))
      | Tac.Phi { dst; args } -> (
          (* phi with identical arguments (or only self-references) *)
          let distinct =
            List.sort_uniq compare
              (List.filter
                 (fun (_, o) ->
                   match o with
                   | Tac.T t -> not (Temp.equal t dst)
                   | Tac.C _ -> true)
                 (List.map (fun (_, o) -> ((), o)) args))
          in
          match distinct with
          | [ ((), o) ] -> Tbl.replace subst dst o
          | _ -> ())
      | Tac.Bin _ | Tac.Fbin _ | Tac.Cmp _ | Tac.Un _ | Tac.Load _
      | Tac.Store _ ->
          ());
  (* resolve substitution chains *)
  let rec resolve seen o =
    match o with
    | Tac.C _ -> o
    | Tac.T t -> (
        if Temp.Set.mem t seen then o
        else
          match Tbl.find_opt subst t with
          | Some o' -> resolve (Temp.Set.add t seen) o'
          | None -> o)
  in
  let apply o =
    let o' = resolve Temp.Set.empty o in
    if not (same_operand o' o) then changed := true;
    o'
  in
  (* only an operand with a substitution can change *)
  let rewrite i =
    if List.exists (Tbl.mem subst) (Tac.uses i) then Tac.map_operands apply i
    else i
  in
  List.iter
    (fun l ->
      let b = Cfg.block cfg l in
      b.Cfg.instrs <- List.map rewrite b.Cfg.instrs;
      b.Cfg.term <-
        (match b.Cfg.term with
        | Tac.Cbr r as t -> (
            match resolve Temp.Set.empty (Tac.T r.c) with
            | Tac.C v ->
                changed := true;
                folded := true;
                Tac.Jmp (if v <> 0L then r.if_true else r.if_false)
            | Tac.T c' ->
                if not (Temp.equal c' r.c) then changed := true;
                if Temp.equal c' r.c then t else Tac.Cbr { r with c = c' })
        | Tac.Ret (Some o) -> Tac.Ret (Some (apply o))
        | (Tac.Jmp _ | Tac.Ret None) as t -> t))
    labels;
  (!changed, !folded)

(* CSE's keys: pure instructions with the destination zeroed.  Two
   keys are equal exactly when [compare] says so (constants are int64
   bits, so there is no float case); the hash mixes the opcode and the
   operands. *)
module Pure = Hashtbl.Make (struct
  type t = Tac.instr

  let equal a b =
    match (a, b) with
    | Tac.Bin x, Tac.Bin y ->
        x.op = y.op && same_operand x.a y.a && same_operand x.b y.b
    | Tac.Fbin x, Tac.Fbin y ->
        x.op = y.op && same_operand x.a y.a && same_operand x.b y.b
    | Tac.Cmp x, Tac.Cmp y ->
        x.cond = y.cond && Bool.equal x.fp y.fp && same_operand x.a y.a
        && same_operand x.b y.b
    | Tac.Un x, Tac.Un y -> x.op = y.op && same_operand x.a y.a
    | _ -> false

  let operand = function
    | Tac.T t -> 2 * t
    | Tac.C c -> (2 * Int64.to_int c) + 1

  let hash i =
    let mix h x = (h * 65599) + x in
    match i with
    | Tac.Bin r ->
        mix (mix (mix 1 (Hashtbl.hash r.op)) (operand r.a)) (operand r.b)
    | Tac.Fbin r ->
        mix (mix (mix 2 (Hashtbl.hash r.op)) (operand r.a)) (operand r.b)
    | Tac.Cmp r ->
        mix
          (mix (mix 3 (Hashtbl.hash r.cond + Bool.to_int r.fp)) (operand r.a))
          (operand r.b)
    | Tac.Un r -> mix (mix 4 (Hashtbl.hash r.op)) (operand r.a)
    | Tac.Load _ | Tac.Store _ | Tac.Phi _ -> 0
end)

(* Dominator-scoped CSE over pure instructions, keyed by the
   instruction itself with its destination zeroed. *)
let cse cfg dom =
  let changed = ref false in
  let table = Pure.create 64 in
  let key i =
    match i with
    | Tac.Bin r -> Some (Tac.Bin { r with dst = 0 })
    | Tac.Fbin r -> Some (Tac.Fbin { r with dst = 0 })
    | Tac.Cmp r -> Some (Tac.Cmp { r with dst = 0 })
    | Tac.Un r -> Some (Tac.Un { r with dst = 0 })
    | Tac.Load _ | Tac.Store _ | Tac.Phi _ -> None
  in
  let rec walk l scope =
    let b = Cfg.block cfg l in
    let added = ref [] in
    b.Cfg.instrs <-
      List.map
        (fun i ->
          match (key i, Tac.def i) with
          | Some k, Some d -> (
              match Pure.find_opt table k with
              | Some prior ->
                  changed := true;
                  Tac.Un { dst = d; op = Opcode.Mov; a = Tac.T prior }
              | None ->
                  Pure.replace table k d;
                  added := k :: !added;
                  i)
          | _ -> i)
        b.Cfg.instrs;
    List.iter (fun c -> walk c (scope + 1)) (Dom.children dom l);
    List.iter (fun k -> Pure.remove table k) !added
  in
  if Cfg.block_opt cfg cfg.Cfg.entry <> None then walk cfg.Cfg.entry 0;
  !changed

(* Dead-code elimination: remove pure defs with no uses.  A use by an
   instruction this round removes still counts, so each round removes
   one dead layer. *)
let dce cfg labels =
  let changed = ref false in
  let used = Tbl.create 256 in
  let mark t = Tbl.replace used t () in
  Cfg.iter_instrs cfg (fun _ i -> List.iter mark (Tac.uses i));
  List.iter
    (fun l -> List.iter mark (Tac.term_uses (Cfg.block cfg l).Cfg.term))
    labels;
  List.iter
    (fun l ->
      let b = Cfg.block cfg l in
      let keep i =
        match (Tac.def i, i) with
        | _, Tac.Store _ -> true
        | Some d, (Tac.Load _ | Tac.Bin _ | Tac.Fbin _ | Tac.Cmp _ | Tac.Un _ | Tac.Phi _)
          ->
            (* loads are pure in this IR (no volatile); a dead load can
               only be removed if its fault cannot matter — we keep the
               paper's semantics by removing it: speculation filters such
               exceptions anyway *)
            Tbl.mem used d
        | None, _ -> true
      in
      if not (List.for_all keep b.Cfg.instrs) then begin
        b.Cfg.instrs <- List.filter keep b.Cfg.instrs;
        changed := true
      end)
    labels;
  !changed

(* Merge straight-line jump chains: b ends in Jmp s, s has one pred and is
   not the entry: inline s into b.  A merge hands s's out-edges to b,
   which had no other successor, so every remaining block keeps its
   number of predecessors: one table per scan answers the whole scan. *)
let merge_chains cfg =
  let changed = ref false in
  let continue_scan = ref true in
  while !continue_scan do
    continue_scan := false;
    let labels = Cfg.rpo cfg in
    let preds = Cfg.pred_table cfg in
    List.iter
      (fun l ->
        match Cfg.block_opt cfg l with
        | None -> ()
        | Some b -> (
            match b.Cfg.term with
            | Tac.Jmp s
              when (not (Label.equal s cfg.Cfg.entry))
                   && (not (Label.equal s l))
                   && List.length (preds s) = 1 ->
                let sb = Cfg.block cfg s in
                let has_phi =
                  List.exists
                    (function Tac.Phi _ -> true | _ -> false)
                    sb.Cfg.instrs
                in
                if not has_phi then begin
                  b.Cfg.instrs <- b.Cfg.instrs @ sb.Cfg.instrs;
                  b.Cfg.term <- sb.Cfg.term;
                  Cfg.remove_block cfg s;
                  (* phis in s's successors named s as a predecessor *)
                  List.iter
                    (fun succ ->
                      match Cfg.block_opt cfg succ with
                      | None -> ()
                      | Some nb ->
                          nb.Cfg.instrs <-
                            List.map
                              (function
                                | Tac.Phi p ->
                                    Tac.Phi
                                      {
                                        p with
                                        args =
                                          List.map
                                            (fun (pl, o) ->
                                              if Label.equal pl s then (l, o)
                                              else (pl, o))
                                            p.args;
                                      }
                                | i -> i)
                              nb.Cfg.instrs)
                    (Tac.term_succs sb.Cfg.term);
                  changed := true;
                  continue_scan := true
                end
            | Tac.Jmp _ | Tac.Cbr _ | Tac.Ret _ -> ()))
      labels
  done;
  !changed

(* Branch folding and unreachable-block pruning change the edge set;
   phi arguments for edges that no longer exist must be dropped. *)
let prune_phi_args cfg =
  let pred_table = Cfg.pred_table cfg in
  List.iter
    (fun l ->
      let b = Cfg.block cfg l in
      let preds = pred_table l in
      b.Cfg.instrs <-
        List.map
          (function
            | Tac.Phi p ->
                Tac.Phi
                  {
                    p with
                    args =
                      List.filter (fun (pl, _) -> List.mem pl preds) p.args;
                  }
            | i -> i)
          b.Cfg.instrs)
    (Cfg.rpo cfg)

(* Up to 10 rounds of propagate, CSE and DCE.  Only a [Cbr] folded by
   propagate changes the edges, so the reverse postorder and the
   dominator tree are computed again only after a fold, and pruning
   (unreachable blocks, then phi arguments of removed edges) runs in
   the first round and after a fold: in any other round both would
   find nothing to remove.  The order and tree computed after a fold
   but before the pruning are those of the pruned CFG, since neither
   looks at unreachable blocks. *)
let run cfg =
  let rounds = ref 0 in
  let continue_opt = ref true in
  let edges = ref None in
  let current () =
    match !edges with
    | Some e -> e
    | None ->
        let e = (Cfg.rpo cfg, Dom.of_cfg cfg) in
        edges := Some e;
        e
  in
  while !continue_opt && !rounds < 10 do
    incr rounds;
    let c1, folded = propagate cfg (fst (current ())) in
    if folded then edges := None;
    let labels, dom = current () in
    let c2 = cse cfg dom in
    let c3 = dce cfg labels in
    if !rounds = 1 || folded then begin
      Cfg.prune_unreachable cfg;
      prune_phi_args cfg
    end;
    continue_opt := c1 || c2 || c3
  done;
  ignore (merge_chains cfg);
  Cfg.prune_unreachable cfg;
  prune_phi_args cfg
