module Cfg = Edge_ir.Cfg
module Label = Edge_ir.Label

let estimate cfg blocks =
  Label.Set.fold
    (fun l acc ->
      match Cfg.block_opt cfg l with
      | None -> acc
      | Some b -> acc + List.length b.Cfg.instrs + 2)
    blocks 0

let singletons cfg =
  let entry = cfg.Cfg.entry in
  let rest =
    List.filter (fun l -> not (Label.equal l entry)) (Cfg.rpo cfg)
  in
  List.map
    (fun l -> { If_convert.head = l; blocks = Label.Set.singleton l })
    (entry :: rest)

(* Greedy selection restricted to [allowed] (used to re-partition an
   oversized region with a smaller budget). *)
let select_restricted cfg ~allowed ~budget =
  let loops = Loops.find cfg in
  let preds = Cfg.pred_table cfg in
  let loop_headers =
    List.fold_left
      (fun acc l -> Label.Set.add l.Loops.header acc)
      Label.Set.empty loops
  in
  let assigned = ref Label.Set.empty in
  let regions = ref [] in
  let assign region =
    assigned := Label.Set.union !assigned region.If_convert.blocks;
    regions := region :: !regions
  in
  let loop_of_header h =
    List.find_opt (fun l -> Label.equal l.Loops.header h) loops
  in
  let in_allowed l =
    match allowed with None -> true | Some s -> Label.Set.mem l s
  in
  let rpo = List.filter in_allowed (Cfg.rpo cfg) in
  List.iter
    (fun l ->
      if not (Label.Set.mem l !assigned) then begin
        let as_loop =
          match loop_of_header l with
          | Some lp
            when lp.Loops.innermost
                 && Label.Set.for_all
                      (fun b ->
                        in_allowed b && not (Label.Set.mem b !assigned))
                      lp.Loops.body
                 && estimate cfg lp.Loops.body <= budget ->
              Some { If_convert.head = l; blocks = lp.Loops.body }
          | _ -> None
        in
        match as_loop with
        | Some r -> assign r
        | None ->
            let blocks = ref (Label.Set.singleton l) in
            let grew = ref true in
            while !grew do
              grew := false;
              let candidates =
                Label.Set.fold
                  (fun b acc ->
                    List.fold_left
                      (fun acc s ->
                        if
                          in_allowed s
                          && (not (Label.Set.mem s !blocks))
                          && (not (Label.Set.mem s !assigned))
                          && (not (Label.Set.mem s loop_headers))
                          && (not (Label.equal s cfg.Cfg.entry))
                          && List.for_all
                               (fun p -> Label.Set.mem p !blocks)
                               (preds s)
                        then s :: acc
                        else acc)
                      acc (Cfg.succs cfg b))
                  !blocks []
              in
              List.iter
                (fun s ->
                  if
                    (not (Label.Set.mem s !blocks))
                    && estimate cfg (Label.Set.add s !blocks) <= budget
                  then begin
                    blocks := Label.Set.add s !blocks;
                    grew := true
                  end)
                candidates
            done;
            assign { If_convert.head = l; blocks = !blocks }
      end)
    rpo;
  List.rev !regions

let select_within cfg region ~budget =
  if Label.Set.cardinal region.If_convert.blocks <= 1 then [ region ]
  else
    select_restricted cfg ~allowed:(Some region.If_convert.blocks) ~budget

let select cfg ~budget = select_restricted cfg ~allowed:None ~budget
