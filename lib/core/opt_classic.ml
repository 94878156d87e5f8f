module Cfg = Edge_ir.Cfg
module Tac = Edge_ir.Tac
module Temp = Edge_ir.Temp
module Label = Edge_ir.Label
module Dom = Edge_ir.Dom
module Opcode = Edge_isa.Opcode

let mask63 v = Int64.to_int (Int64.logand v 63L)

(* Constant evaluation mirrors Alu/Interp semantics; division by zero is
   not folded (it must fault at run time). *)
let fold_ibinop op a b =
  match op with
  | Opcode.Add -> Some (Int64.add a b)
  | Opcode.Sub -> Some (Int64.sub a b)
  | Opcode.Mul -> Some (Int64.mul a b)
  | Opcode.Div -> if b = 0L then None else Some (Int64.div a b)
  | Opcode.Rem -> if b = 0L then None else Some (Int64.rem a b)
  | Opcode.And -> Some (Int64.logand a b)
  | Opcode.Or -> Some (Int64.logor a b)
  | Opcode.Xor -> Some (Int64.logxor a b)
  | Opcode.Sll -> Some (Int64.shift_left a (mask63 b))
  | Opcode.Srl -> Some (Int64.shift_right_logical a (mask63 b))
  | Opcode.Sra -> Some (Int64.shift_right a (mask63 b))

let fold_fbinop op a b =
  let x = Int64.float_of_bits a and y = Int64.float_of_bits b in
  let r =
    match op with
    | Opcode.Fadd -> x +. y
    | Opcode.Fsub -> x -. y
    | Opcode.Fmul -> x *. y
    | Opcode.Fdiv -> x /. y
  in
  Some (Int64.bits_of_float r)

let fold_cmp cond fp a b =
  let r =
    if fp then
      let x = Int64.float_of_bits a and y = Int64.float_of_bits b in
      match cond with
      | Opcode.Eq -> x = y
      | Opcode.Ne -> x <> y
      | Opcode.Lt -> x < y
      | Opcode.Le -> x <= y
      | Opcode.Gt -> x > y
      | Opcode.Ge -> x >= y
    else
      let c = Int64.compare a b in
      match cond with
      | Opcode.Eq -> c = 0
      | Opcode.Ne -> c <> 0
      | Opcode.Lt -> c < 0
      | Opcode.Le -> c <= 0
      | Opcode.Gt -> c > 0
      | Opcode.Ge -> c >= 0
  in
  if r then 1L else 0L

let fold_unop op a =
  match op with
  | Opcode.Mov -> Some a
  | Opcode.Not -> Some (Int64.lognot a)
  | Opcode.Neg -> Some (Int64.neg a)
  | Opcode.Fneg -> Some (Int64.bits_of_float (-.Int64.float_of_bits a))
  | Opcode.Fitod -> Some (Int64.bits_of_float (Int64.to_float a))
  | Opcode.Fdtoi -> Some (Int64.of_float (Int64.float_of_bits a))

(* One round of constant/copy propagation. Returns true if changed. *)
let propagate cfg =
  let changed = ref false in
  (* substitution map from SSA defs *)
  let subst : (Temp.t, Tac.operand) Hashtbl.t = Hashtbl.create 64 in
  Cfg.iter_instrs cfg (fun _ i ->
      match i with
      | Tac.Un { dst; op = Opcode.Mov; a } -> Hashtbl.replace subst dst a
      | Tac.Bin { dst; op; a = Tac.C a; b = Tac.C b } -> (
          match fold_ibinop op a b with
          | Some v -> Hashtbl.replace subst dst (Tac.C v)
          | None -> ())
      | Tac.Fbin { dst; op; a = Tac.C a; b = Tac.C b } -> (
          match fold_fbinop op a b with
          | Some v -> Hashtbl.replace subst dst (Tac.C v)
          | None -> ())
      | Tac.Cmp { dst; cond; fp; a = Tac.C a; b = Tac.C b } ->
          Hashtbl.replace subst dst (Tac.C (fold_cmp cond fp a b))
      | Tac.Un { dst; op; a = Tac.C a } -> (
          match fold_unop op a with
          | Some v -> Hashtbl.replace subst dst (Tac.C v)
          | None -> ())
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
          | [ ((), o) ] -> Hashtbl.replace subst dst o
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
          match Hashtbl.find_opt subst t with
          | Some o' -> resolve (Temp.Set.add t seen) o'
          | None -> o)
  in
  let apply o =
    let o' = resolve Temp.Set.empty o in
    if o' <> o then changed := true;
    o'
  in
  List.iter
    (fun l ->
      let b = Cfg.block cfg l in
      b.Cfg.instrs <- List.map (Tac.map_operands apply) b.Cfg.instrs;
      b.Cfg.term <-
        (match b.Cfg.term with
        | Tac.Cbr r as t -> (
            match resolve Temp.Set.empty (Tac.T r.c) with
            | Tac.C v ->
                changed := true;
                Tac.Jmp (if v <> 0L then r.if_true else r.if_false)
            | Tac.T c' ->
                if not (Temp.equal c' r.c) then changed := true;
                if Temp.equal c' r.c then t else Tac.Cbr { r with c = c' })
        | Tac.Ret (Some o) -> Tac.Ret (Some (apply o))
        | (Tac.Jmp _ | Tac.Ret None) as t -> t))
    (Cfg.rpo cfg);
  !changed

(* Dominator-scoped CSE over pure instructions, keyed by the
   instruction itself with its destination zeroed. *)
let cse cfg =
  let changed = ref false in
  let dom = Dom.of_cfg cfg in
  let table : (Tac.instr, Temp.t) Hashtbl.t = Hashtbl.create 64 in
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
              match Hashtbl.find_opt table k with
              | Some prior ->
                  changed := true;
                  Tac.Un { dst = d; op = Opcode.Mov; a = Tac.T prior }
              | None ->
                  Hashtbl.replace table k d;
                  added := k :: !added;
                  i)
          | _ -> i)
        b.Cfg.instrs;
    List.iter (fun c -> walk c (scope + 1)) (Dom.children dom l);
    List.iter (fun k -> Hashtbl.remove table k) !added
  in
  (match Cfg.rpo cfg with [] -> () | entry :: _ -> walk entry 0);
  !changed

(* Dead-code elimination: remove pure defs with no uses. *)
let dce cfg =
  let changed = ref false in
  let used = ref Temp.Set.empty in
  let mark t = used := Temp.Set.add t !used in
  Cfg.iter_instrs cfg (fun _ i -> List.iter mark (Tac.uses i));
  List.iter
    (fun l -> List.iter mark (Tac.term_uses (Cfg.block cfg l).Cfg.term))
    (Cfg.rpo cfg);
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
            Temp.Set.mem d !used
        | None, _ -> true
      in
      let before = List.length b.Cfg.instrs in
      b.Cfg.instrs <- List.filter keep b.Cfg.instrs;
      if List.length b.Cfg.instrs <> before then changed := true)
    (Cfg.rpo cfg);
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

let run cfg =
  let rounds = ref 0 in
  let continue_opt = ref true in
  while !continue_opt && !rounds < 10 do
    incr rounds;
    let c1 = propagate cfg in
    let c2 = cse cfg in
    let c3 = dce cfg in
    Cfg.prune_unreachable cfg;
    prune_phi_args cfg;
    continue_opt := c1 || c2 || c3
  done;
  ignore (merge_chains cfg);
  Cfg.prune_unreachable cfg;
  prune_phi_args cfg
