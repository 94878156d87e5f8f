type bblock = {
  label : Label.t;
  mutable instrs : Tac.instr list;
  mutable term : Tac.term;
}

type t = {
  fname : string;
  params : Temp.t list;
  entry : Label.t;
  mutable blocks : bblock Label.Map.t;
  gen : Temp.Gen.t;
}

let create ~fname ~params ~entry ~gen =
  { fname; params; entry; blocks = Label.Map.empty; gen }

let add_block t b = t.blocks <- Label.Map.add b.label b t.blocks

let block t l =
  match Label.Map.find_opt l t.blocks with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Cfg.block: no block %s" l)

let block_opt t l = Label.Map.find_opt l t.blocks
let remove_block t l = t.blocks <- Label.Map.remove l t.blocks
let labels t = Label.Map.bindings t.blocks |> List.map fst
let succs t l = Tac.term_succs (block t l).term

let pred_table t =
  let tbl = Hashtbl.create 16 in
  (* descending label order, so consing leaves every list ascending; a
     [Cbr] with both arms on one label meets its own label at the head *)
  Seq.iter
    (fun (pl, b) ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt tbl s with
          | Some (p :: _) when Label.equal p pl -> ()
          | ps -> Hashtbl.replace tbl s (pl :: Option.value ~default:[] ps))
        (Tac.term_succs b.term))
    (Label.Map.to_rev_seq t.blocks);
  fun l -> Option.value ~default:[] (Hashtbl.find_opt tbl l)

let rpo t =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.add visited l ();
      (match block_opt t l with
      | Some b -> List.iter dfs (Tac.term_succs b.term)
      | None -> ());
      order := l :: !order
    end
  in
  dfs t.entry;
  List.filter (fun l -> block_opt t l <> None) !order

let prune_unreachable t =
  let reachable = Label.Set.of_list (rpo t) in
  t.blocks <-
    Label.Map.filter (fun l _ -> Label.Set.mem l reachable) t.blocks

let iter_instrs t f =
  Label.Map.iter (fun l b -> List.iter (f l) b.instrs) t.blocks

let defs t =
  let m = ref Temp.Map.empty in
  Label.Map.iter
    (fun l b ->
      List.iter
        (fun i ->
          match Tac.def i with
          | None -> ()
          | Some d ->
              let s =
                Option.value ~default:Label.Set.empty (Temp.Map.find_opt d !m)
              in
              m := Temp.Map.add d (Label.Set.add l s) !m)
        b.instrs)
    t.blocks;
  !m

let copy t =
  {
    t with
    blocks =
      Label.Map.map
        (fun b -> { label = b.label; instrs = b.instrs; term = b.term })
        t.blocks;
    gen = Temp.Gen.copy t.gen;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>function %s(%a)@," t.fname
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Temp.pp)
    t.params;
  List.iter
    (fun l ->
      let b = block t l in
      Format.fprintf ppf "%a:@," Label.pp l;
      List.iter (fun i -> Format.fprintf ppf "  %a@," Tac.pp_instr i) b.instrs;
      Format.fprintf ppf "  %a@," Tac.pp_term b.term)
    (rpo t);
  Format.fprintf ppf "@]"
