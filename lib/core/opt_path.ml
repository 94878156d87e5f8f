module Hb = Edge_ir.Hblock
module Tac = Edge_ir.Tac
module Temp = Edge_ir.Temp
module Psi = Edge_ir.Psi_ssa

(* The pass now reads the Psi-SSA view: an output temp's psi-node
   argument list is exactly its definition sites (guarded output moves,
   direct producers) plus its explicit nulls, each with the predicate
   it delivers under — what the old code recomputed by scanning the
   body per output.  Classify the arguments of [x_out]'s psi. *)
type out_defs = {
  movs : (int * Temp.t) list;  (* body position, source version *)
  nulls : int list;  (* body positions of Null_write *)
  others : int;  (* defs that are not moves (direct producer case) *)
}

let classify_psi (vw : Psi.view) (args : Psi.psi_arg list) =
  let movs = ref [] and nulls = ref [] and others = ref 0 in
  List.iter
    (fun (a : Psi.psi_arg) ->
      if a.Psi.anull then nulls := a.Psi.asite :: !nulls
      else
        match vw.Psi.vbody.(a.Psi.asite).Hb.hop with
        | Hb.Op (Tac.Un { op = Edge_isa.Opcode.Mov; a = Tac.T src; _ }) ->
            movs := (a.Psi.asite, src) :: !movs
        | _ -> incr others)
    args;
  { movs = List.rev !movs; nulls = List.rev !nulls; others = !others }

let analyze_block (h : Hb.t) =
  let vw = Psi.view h in
  List.filter_map
    (fun (x, x_out) ->
      match Psi.psi vw x_out with
      | None -> None (* a single delivery never needs promotion *)
      | Some args -> (
          let d = classify_psi vw args in
          if d.others > 0 || d.movs = [] then None
          else
            let sources =
              List.sort_uniq Temp.compare (List.map snd d.movs)
            in
            match sources with
            | [ v ] when d.nulls <> [] || List.length d.movs > 1 -> (
                (* single version feeds every live exit; candidate *)
                match Psi.promotable_chain vw v with
                | Some chain -> Some (x, x_out, v, d, chain)
                | None -> None)
            | _ -> None))
    h.Hb.houts

let run ?m hblocks _cfg _liveness ~retq =
  ignore retq;
  List.iter
    (fun (h : Hb.t) ->
      let candidates = analyze_block h in
      if candidates <> [] then begin
        (match m with
        | Some m ->
            Edge_obs.Metrics.incr
              ~by:(List.length candidates)
              m
              (Pass_id.counter Pass_id.Opt_path "outputs_promoted")
        | None -> ());
        let body = Array.of_list h.Hb.body in
        let kill = Hashtbl.create 16 in
        let unguard = Hashtbl.create 16 in
        let replaced = ref [] in
        List.iter
          (fun (x, x_out, v, d, chain) ->
            ignore x;
            (* drop the per-exit moves and nulls; add one unconditional
               copy; unguard the upward chain *)
            List.iter (fun (i, _) -> Hashtbl.replace kill i ()) d.movs;
            List.iter (fun i -> Hashtbl.replace kill i ()) d.nulls;
            List.iter (fun i -> Hashtbl.replace unguard i ()) chain;
            replaced :=
              {
                Hb.hop =
                  Hb.Op
                    (Tac.Un { dst = x_out; op = Edge_isa.Opcode.Mov; a = Tac.T v });
                guard = None;
              }
              :: !replaced)
          candidates;
        let new_body =
          List.concat
            (List.mapi
               (fun i hi ->
                 if Hashtbl.mem kill i then []
                 else if Hashtbl.mem unguard i then
                   [ { hi with Hb.guard = None } ]
                 else [ hi ])
               (Array.to_list body))
          @ List.rev !replaced
        in
        h.Hb.body <- new_body
      end)
    hblocks
