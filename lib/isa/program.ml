type t = { entry : string; blocks : (string * Block.t) list }

let find t name = List.assoc_opt name t.blocks

let check_exits t =
  List.concat_map
    (fun (name, (b : Block.t)) ->
      Array.to_list b.Block.exits
      |> List.filter_map (fun e ->
             if String.equal e Block.halt_exit || find t e <> None then None
             else Some (Printf.sprintf "%s: exit to unknown block %s" name e)))
    t.blocks

let make ~entry blocks =
  let named = List.map (fun (b : Block.t) -> (b.Block.name, b)) blocks in
  let rec dup = function
    | [] -> None
    | (n, _) :: tl -> if List.mem_assoc n tl then Some n else dup tl
  in
  match dup named with
  | Some n -> Error (Printf.sprintf "duplicate block name %s" n)
  | None ->
      let t = { entry; blocks = named } in
      if find t entry = None then
        Error (Printf.sprintf "entry block %s not found" entry)
      else
        match check_exits t with
        | [] -> Ok t
        | e :: _ -> Error e

let validate t =
  let block_errs =
    List.concat_map
      (fun (name, b) ->
        match Block.validate b with
        | Ok () -> []
        | Error es -> List.map (fun e -> name ^ ": " ^ e) es)
      t.blocks
  in
  match block_errs @ check_exits t with [] -> Ok () | es -> Error es

let pp ppf t =
  Format.fprintf ppf "@[<v>program (entry %s)@," t.entry;
  List.iter (fun (_, b) -> Format.fprintf ppf "%a@," Block.pp b) t.blocks;
  Format.fprintf ppf "@]"
