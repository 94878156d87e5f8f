module Hb = Edge_ir.Hblock
module Tac = Edge_ir.Tac
module Temp = Edge_ir.Temp
module Opcode = Edge_isa.Opcode

(* The guard chain of predicate [p]: the (pred, polarity) pairs that must
   have matched for p's defining test to fire, following singleton guards
   upward. Used to prove two predicate outcomes mutually exclusive. *)
let guard_chain def_sites (body : Hb.hinstr array) p =
  let rec walk p acc seen =
    if Temp.Set.mem p seen then acc
    else
      match Temp.Map.find_opt p def_sites with
      | Some [ i ] -> (
          match body.(i).Hb.guard with
          | Some { Hb.gpol; gpreds = [ q ] } ->
              walk q ((q, gpol) :: acc) (Temp.Set.add p seen)
          | Some _ | None -> acc)
      | Some _ | None -> acc
  in
  walk p [] Temp.Set.empty

(* (p1 matches pol1) and (p2 matches pol2) can never both happen in one
   execution: p2's upward chain passes through (p1, not pol1), or
   symmetrically. *)
let disjoint def_sites body (p1, pol1) (p2, pol2) =
  (not (Temp.equal p1 p2))
  && (List.exists
        (fun (q, pol) -> Temp.equal q p1 && pol <> pol1)
        (guard_chain def_sites body p2)
     || List.exists
          (fun (q, pol) -> Temp.equal q p2 && pol <> pol2)
          (guard_chain def_sites body p1))

let pairwise_disjoint def_sites body pol1 preds1 pol2 preds2 =
  List.for_all
    (fun p1 ->
      List.for_all
        (fun p2 -> disjoint def_sites body (p1, pol1) (p2, pol2))
        preds2)
    preds1

(* All singleton guards mentioning p, and nothing else mentions p as a
   predicate in non-singleton form; needed before flipping p's test. *)
let can_flip (h : Hb.t) def_sites (body : Hb.hinstr array) p =
  let used_as_data =
    List.exists
      (fun hi -> List.exists (Temp.equal p) (Hb.data_uses hi))
      h.Hb.body
  in
  let singleton_only g =
    match g with
    | Some { Hb.gpreds; _ } when List.exists (Temp.equal p) gpreds ->
        List.length gpreds = 1
    | Some _ | None -> true
  in
  let flippable_def =
    match Temp.Map.find_opt p def_sites with
    | Some [ i ] -> (
        match body.(i).Hb.hop with
        | Hb.Op (Tac.Cmp _) -> true
        | Hb.Op _ | Hb.Sand _ | Hb.Null_write _ | Hb.Null_store _ -> false)
    | Some _ | None -> false
  in
  flippable_def && (not used_as_data)
  && List.for_all (fun hi -> singleton_only hi.Hb.guard) h.Hb.body
  && List.for_all (fun e -> singleton_only e.Hb.eguard) h.Hb.hexits

let flip_pred (h : Hb.t) def_sites p =
  let flip_guard g =
    match g with
    | Some { Hb.gpol; gpreds = [ q ] } when Temp.equal q p ->
        Some { Hb.gpol = not gpol; gpreds = [ q ] }
    | g -> g
  in
  h.Hb.body <-
    List.mapi
      (fun i hi ->
        let hi = { hi with Hb.guard = flip_guard hi.Hb.guard } in
        match Temp.Map.find_opt p def_sites with
        | Some [ di ] when di = i -> (
            match hi.Hb.hop with
            | Hb.Op (Tac.Cmp c) ->
                { hi with Hb.hop = Hb.Op (Tac.Cmp { c with cond = Opcode.negate_cond c.cond }) }
            | Hb.Op _ | Hb.Sand _ | Hb.Null_write _ | Hb.Null_store _ -> hi)
        | Some _ | None -> hi)
      h.Hb.body;
  h.Hb.hexits <-
    List.map (fun e -> { e with Hb.eguard = flip_guard e.Hb.eguard }) h.Hb.hexits

(* Attempt to merge guards g1 and g2 of two lexically equal instructions.
   Returns the merged guard, possibly after flipping a test (category 3,
   applied via [flip] callback). *)
let merge_guards (h : Hb.t) def_sites body g1 g2 =
  match (g1, g2) with
  | Some { Hb.gpol = pol1; gpreds = [ p1 ] }, Some { Hb.gpol = pol2; gpreds = [ p2 ] }
    when Temp.equal p1 p2 && pol1 <> pol2 -> (
      (* category 1: fires on either polarity of p1 = fires when the test
         fires; take the guard of the defining test *)
      match Temp.Map.find_opt p1 def_sites with
      | Some [ i ] -> Some body.(i).Hb.guard
      | Some _ | None -> None)
  | Some { Hb.gpol = pol1; gpreds = preds1 }, Some { Hb.gpol = pol2; gpreds = preds2 }
    when pol1 = pol2 ->
      (* category 2 *)
      if pairwise_disjoint def_sites body pol1 preds1 pol2 preds2 then
        Some
          (Some
             { Hb.gpol = pol1; gpreds = List.sort_uniq Temp.compare (preds1 @ preds2) })
      else None
  | Some { Hb.gpol = pol1; gpreds = preds1 }, Some { Hb.gpol = pol2; gpreds = [ p2 ] }
    when pol1 <> pol2 ->
      (* category 3: flip p2's test, then category 2 *)
      if
        can_flip h def_sites body p2
        && pairwise_disjoint def_sites body pol1 preds1 (not pol2) [ p2 ]
      then begin
        flip_pred h def_sites p2;
        Some
          (Some
             { Hb.gpol = pol1; gpreds = List.sort_uniq Temp.compare (p2 :: preds1) })
      end
      else None
  | _ -> None

let hop_key hop =
  match hop with
  | Hb.Op (Tac.Store _) | Hb.Op (Tac.Load _) -> None (* keep LSID identity *)
  | Hb.Op i -> Some (Format.asprintf "op:%a" Tac.pp_instr i)
  | Hb.Sand { dst; a; b } -> Some (Printf.sprintf "sand:%d:%d:%d" dst a b)
  | Hb.Null_write t -> Some (Printf.sprintf "nw:%d" t)
  | Hb.Null_store i -> Some (Printf.sprintf "ns:%d" i)

let merge_body (h : Hb.t) =
  let eliminated = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    let body = Array.of_list h.Hb.body in
    let def_sites = Hb.def_sites h in
    let groups = Hashtbl.create 16 in
    Array.iteri
      (fun i hi ->
        match hop_key hi.Hb.hop with
        | Some k ->
            Hashtbl.replace groups k
              (i :: Option.value ~default:[] (Hashtbl.find_opt groups k))
        | None -> ())
      body;
    let to_delete = Hashtbl.create 8 in
    Hashtbl.iter
      (fun _ idxs ->
        match List.rev idxs with
        | i :: rest when not !progress ->
            List.iter
              (fun j ->
                if (not !progress) && not (Hashtbl.mem to_delete j) then begin
                  match
                    merge_guards h def_sites body body.(i).Hb.guard
                      body.(j).Hb.guard
                  with
                  | Some merged ->
                      (* re-read body in case a flip rewrote it *)
                      let cur = Array.of_list h.Hb.body in
                      cur.(i) <- { (cur.(i)) with Hb.guard = merged };
                      Hashtbl.replace to_delete j ();
                      h.Hb.body <- Array.to_list cur;
                      incr eliminated;
                      progress := true
                  | None -> ()
                end)
              rest
        | _ -> ())
      groups;
    if Hashtbl.length to_delete > 0 then
      h.Hb.body <-
        List.filteri (fun i _ -> not (Hashtbl.mem to_delete i)) h.Hb.body
  done;
  !eliminated

let merge_exits (h : Hb.t) =
  let eliminated = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    let body = Array.of_list h.Hb.body in
    let def_sites = Hb.def_sites h in
    let exits = Array.of_list h.Hb.hexits in
    let n = Array.length exits in
    (try
       for i = 0 to n - 1 do
         for j = i + 1 to n - 1 do
           if exits.(i).Hb.etarget = exits.(j).Hb.etarget then begin
             match
               merge_guards h def_sites body exits.(i).Hb.eguard
                 exits.(j).Hb.eguard
             with
             | Some merged ->
                 (* re-read hexits in case a flip rewrote their guards *)
                 let keep =
                   List.filteri (fun k _ -> k <> j) h.Hb.hexits
                 in
                 h.Hb.hexits <-
                   List.mapi
                     (fun k e -> if k = i then { e with Hb.eguard = merged } else e)
                     keep;
                 incr eliminated;
                 progress := true;
                 raise Exit
             | None -> ()
           end
         done
       done
     with Exit -> ())
  done;
  !eliminated

let run ?m (h : Hb.t) =
  let body = merge_body h in
  let exits = merge_exits h in
  match m with
  | Some m ->
      Edge_obs.Metrics.incr ~by:body m "pass.merge.instrs_merged";
      Edge_obs.Metrics.incr ~by:exits m "pass.merge.exits_merged"
  | None -> ()

