module Cfg = Edge_ir.Cfg
module Label = Edge_ir.Label
module Dom = Edge_ir.Dom

type loop = {
  header : Label.t;
  latches : Label.t list;
  body : Label.Set.t;
  innermost : bool;
}

let find cfg =
  let dom = Dom.of_cfg cfg in
  let preds = Cfg.pred_table cfg in
  let labels = Cfg.rpo cfg in
  (* back edge: l -> h where h dominates l *)
  let back_edges =
    List.concat_map
      (fun l ->
        List.filter_map
          (fun s -> if Dom.dominates dom s l then Some (l, s) else None)
          (Cfg.succs cfg l))
      labels
  in
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (latch, header) ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt by_header header)
      in
      Hashtbl.replace by_header header (latch :: prev))
    back_edges;
  let loops =
    Hashtbl.fold
      (fun header latches acc ->
        (* natural loop body: header + nodes reaching a latch without
           passing through the header *)
        let body = ref (Label.Set.singleton header) in
        let work = Queue.create () in
        List.iter
          (fun l ->
            if not (Label.Set.mem l !body) then begin
              body := Label.Set.add l !body;
              Queue.add l work
            end)
          latches;
        while not (Queue.is_empty work) do
          let n = Queue.pop work in
          List.iter
            (fun p ->
              if not (Label.Set.mem p !body) then begin
                body := Label.Set.add p !body;
                Queue.add p work
              end)
            (preds n)
        done;
        { header; latches; body = !body; innermost = true } :: acc)
      by_header []
  in
  (* innermost = contains no other loop's header (besides its own) *)
  List.map
    (fun l ->
      let contains_other =
        List.exists
          (fun l2 ->
            (not (Label.equal l2.header l.header))
            && Label.Set.mem l2.header l.body)
          loops
      in
      { l with innermost = not contains_other })
    loops

let headers cfg =
  List.fold_left
    (fun acc l -> Label.Set.add l.header acc)
    Label.Set.empty (find cfg)
