type graph = { g_nodes : Label.t list; g_preds : Label.t -> Label.t list }

type t = {
  order : (Label.t, int) Hashtbl.t;  (* reverse postorder numbering *)
  nodes : Label.t array;  (* indexed by rpo number *)
  idoms : int array;  (* idoms.(n) = rpo number of idom; root maps to
                         itself *)
  frontiers : Label.t list array;
  kids : Label.t list array;
}

let compute g =
  let nodes = Array.of_list g.g_nodes in
  let n = Array.length nodes in
  let order = Hashtbl.create n in
  Array.iteri (fun i l -> Hashtbl.replace order l i) nodes;
  (* each node's predecessors by rpo number, looked up once *)
  let preds =
    Array.map
      (fun l -> List.filter_map (fun p -> Hashtbl.find_opt order p) (g.g_preds l))
      nodes
  in
  let idoms = Array.make n (-1) in
  if n > 0 then idoms.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if a > b then intersect idoms.(a) b
    else intersect a idoms.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      match List.filter (fun p -> idoms.(p) >= 0) preds.(i) with
      | [] -> ()
      | first :: rest ->
          let new_idom = List.fold_left intersect first rest in
          if idoms.(i) <> new_idom then begin
            idoms.(i) <- new_idom;
            changed := true
          end
    done
  done;
  let frontiers = Array.make n [] in
  for i = 0 to n - 1 do
    if List.length preds.(i) >= 2 then
      List.iter
        (fun p ->
          if idoms.(p) >= 0 || p = 0 then begin
            let runner = ref p in
            while !runner <> idoms.(i) && idoms.(!runner) >= 0 do
              if not (List.mem nodes.(i) frontiers.(!runner)) then
                frontiers.(!runner) <- nodes.(i) :: frontiers.(!runner);
              if !runner = idoms.(!runner) then runner := idoms.(i)
              else runner := idoms.(!runner)
            done
          end)
        preds.(i)
  done;
  let kids = Array.make n [] in
  for i = n - 1 downto 1 do
    if idoms.(i) >= 0 && idoms.(i) <> i then
      kids.(idoms.(i)) <- nodes.(i) :: kids.(idoms.(i))
  done;
  { order; nodes; idoms; frontiers; kids }

let of_cfg cfg = compute { g_nodes = Cfg.rpo cfg; g_preds = Cfg.pred_table cfg }

let num t l = Hashtbl.find_opt t.order l

let idom t l =
  match num t l with
  | None -> None
  | Some 0 -> None
  | Some i ->
      if t.idoms.(i) < 0 then None
      else Some t.nodes.(t.idoms.(i))

let dominates t a b =
  match (num t a, num t b) with
  | Some ia, Some ib ->
      let rec walk i = if i = ia then true else if i = 0 || t.idoms.(i) < 0 then false else walk t.idoms.(i) in
      walk ib
  | _ -> false

let frontier t l =
  match num t l with None -> [] | Some i -> t.frontiers.(i)

let children t l = match num t l with None -> [] | Some i -> t.kids.(i)
