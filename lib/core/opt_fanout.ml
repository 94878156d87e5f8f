module Hb = Edge_ir.Hblock
module Tac = Edge_ir.Tac
module Temp = Edge_ir.Temp

let analyze (h : Hb.t) =
  (* temps used as predicates anywhere (body guards or exit guards) *)
  let pred_temps = ref Temp.Set.empty in
  let add_guard g =
    List.iter
      (fun p -> pred_temps := Temp.Set.add p !pred_temps)
      (Hb.guard_uses g)
  in
  List.iter (fun hi -> add_guard hi.Hb.guard) h.Hb.body;
  List.iter (fun e -> add_guard e.Hb.eguard) h.Hb.hexits;
  (* output producers *)
  let out_producers =
    List.fold_left
      (fun acc (_, prod) -> Temp.Set.add prod acc)
      Temp.Set.empty h.Hb.houts
  in
  (* multi-def temps *)
  let def_count = Hashtbl.create 16 in
  List.iter
    (fun hi ->
      match Hb.hop_def hi.Hb.hop with
      | Some d ->
          Hashtbl.replace def_count d
            (1 + Option.value ~default:0 (Hashtbl.find_opt def_count d))
      | None -> ())
    h.Hb.body;
  (!pred_temps, out_producers, def_count)

let candidate (pred_temps, out_producers, def_count) hi =
  match (hi.Hb.guard, hi.Hb.hop) with
  | None, _ -> false
  | Some _, (Hb.Null_write _ | Hb.Null_store _ | Hb.Sand _) ->
      false (* nulls are output producers; sands are predicate defs *)
  | Some _, Hb.Op (Tac.Store _) -> false (* condition 1 *)
  | Some _, Hb.Op i -> (
      match Tac.def i with
      | None -> false
      | Some d ->
          (not (Temp.Set.mem d pred_temps)) (* condition 2 *)
          && (not (Temp.Set.mem d out_producers)) (* condition 3 *)
          && Option.value ~default:0 (Hashtbl.find_opt def_count d) <= 1
          (* condition 4 *))

(* Implicit predication is free: an instruction whose data operand can
   only arrive when this guard matched never fires off-path, so dropping
   its explicit guard changes nothing but the predicate fanout. The
   analysis uses the *original* guards — removing an implicit guard does
   not change when the instruction fires, so one pass suffices for whole
   chains. *)
let implicitly_predicated (h : Hb.t) =
  let def_sites = Hb.def_sites h in
  let body = Array.of_list h.Hb.body in
  fun hi ->
    match hi.Hb.guard with
    | None -> false
    | Some _ ->
        List.exists
          (fun t ->
            match Temp.Map.find_opt t def_sites with
            | Some [ d ] -> Hb.guard_equal body.(d).Hb.guard hi.Hb.guard
            | Some _ | None -> false)
          (Hb.data_uses hi)

(* Speculative hoisting trades predicate fanout for wasted execution; it
   only pays for cheap single-cycle operations (the paper notes the
   compiler must weigh losing performance when the predicate computation
   is not the bottleneck, Section 5.1). *)
let hoistable hi =
  match hi.Hb.hop with
  | Hb.Op i -> Tac.is_cheap i
  | Hb.Sand _ | Hb.Null_write _ | Hb.Null_store _ -> false

let run ?m (h : Hb.t) =
  let info = analyze h in
  let implicit = implicitly_predicated h in
  let removed = ref 0 in
  h.Hb.body <-
    List.map
      (fun hi ->
        if candidate info hi && (implicit hi || hoistable hi) then begin
          incr removed;
          { hi with Hb.guard = None }
        end
        else hi)
      h.Hb.body;
  match m with
  | Some m -> Edge_obs.Metrics.incr ~by:!removed m "pass.fanout.guards_removed"
  | None -> ()
