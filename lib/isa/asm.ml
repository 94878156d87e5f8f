type line =
  | Lprogram of string
  | Lblock of string
  | Lread of int * int * Target.t list
  | Linstr of Instr.t
  | Lwrite of int * int
  | Lstores of int list
  | Lexit of int * string
  | Lblank

exception Bad of string

let fail fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun x -> x <> "")

let parse_target s =
  (* I12.L | I12.R | I12.P | W3 *)
  if String.length s >= 2 && s.[0] = 'W' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some w -> Target.To_write w
    | None -> fail "bad write target %s" s
  else if String.length s >= 4 && s.[0] = 'I' then begin
    match String.index_opt s '.' with
    | None -> fail "bad target %s" s
    | Some dot -> (
        let id = int_of_string_opt (String.sub s 1 (dot - 1)) in
        let slot =
          match String.sub s (dot + 1) (String.length s - dot - 1) with
          | "L" -> Target.Left
          | "R" -> Target.Right
          | "P" -> Target.Pred
          | x -> fail "bad operand slot %s" x
        in
        match id with
        | Some id -> Target.To_instr { id; slot }
        | None -> fail "bad target %s" s)
  end
  else fail "bad target %s" s

(* targets appear as "-> T1 -> T2" at the end of a token list *)
let rec parse_targets = function
  | [] -> []
  | "->" :: t :: rest -> parse_target t :: parse_targets rest
  | tok :: _ -> fail "unexpected token %s" tok

let parse_mnemonic m =
  (* mnemonic with optional _t/_f suffix *)
  let base, pred =
    if String.length m > 2 && String.sub m (String.length m - 2) 2 = "_t" then
      (String.sub m 0 (String.length m - 2), Instr.If_true)
    else if String.length m > 2 && String.sub m (String.length m - 2) 2 = "_f"
    then (String.sub m 0 (String.length m - 2), Instr.If_false)
    else (m, Instr.Unpredicated)
  in
  match Opcode.of_mnemonic base with
  | Some op -> (op, pred)
  | None -> fail "unknown mnemonic %s" base

let parse_reg s =
  if String.length s >= 2 && s.[0] = 'g' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some r when r >= 0 && r < Conventions.num_regs -> r
    | _ -> fail "bad register %s" s
  else fail "bad register %s" s

let parse_line raw =
  let s = String.trim raw in
  if s = "" then Lblank
  else
    match split_ws s with
    | [ "program"; entry ] ->
        (* "(entry foo)" printed by Program.pp *)
        let e =
          if String.length entry > 7 && String.sub entry 0 7 = "(entry " then
            String.sub entry 7 (String.length entry - 8)
          else entry
        in
        Lprogram e
    | [ "program"; "(entry"; e ] ->
        Lprogram (String.sub e 0 (String.length e - 1))
    | [ "block"; name ] -> Lblock name
    | slot :: "read" :: reg :: rest when String.length slot > 1 && slot.[0] = 'R'
      -> (
        match int_of_string_opt (String.sub slot 1 (String.length slot - 1)) with
        | Some rslot -> Lread (rslot, parse_reg reg, parse_targets rest)
        | None -> fail "bad read slot %s" slot)
    | [ slot; "write"; reg ] when String.length slot > 1 && slot.[0] = 'W' -> (
        match int_of_string_opt (String.sub slot 1 (String.length slot - 1)) with
        | Some wslot -> Lwrite (wslot, parse_reg reg)
        | None -> fail "bad write slot %s" slot)
    | "stores:" :: ls ->
        Lstores
          (List.map
             (fun l ->
               match int_of_string_opt l with
               | Some v -> v
               | None -> fail "bad lsid %s" l)
             ls)
    | [ "exit"; idx; target ] when String.length idx > 0
                                   && idx.[String.length idx - 1] = ':' -> (
        match int_of_string_opt (String.sub idx 0 (String.length idx - 1)) with
        | Some i -> Lexit (i, target)
        | None -> fail "bad exit index %s" idx)
    | islot :: mnem :: rest when String.length islot > 1 && islot.[0] = 'I' -> (
        match int_of_string_opt (String.sub islot 1 (String.length islot - 1)) with
        | None -> fail "bad instruction slot %s" islot
        | Some id ->
            let opcode, pred = parse_mnemonic mnem in
            (* optional immediate, [lsid n], [exit n], then targets *)
            let imm = ref 0L and lsid = ref (-1) and exit_idx = ref (-1) in
            let rec eat = function
              | tok :: rest when String.length tok > 1 && tok.[0] = '#' -> (
                  match
                    Int64.of_string_opt (String.sub tok 1 (String.length tok - 1))
                  with
                  | Some v ->
                      imm := v;
                      eat rest
                  | None -> fail "bad immediate %s" tok)
              | "[lsid" :: n :: rest -> (
                  match
                    int_of_string_opt (String.sub n 0 (String.length n - 1))
                  with
                  | Some v ->
                      lsid := v;
                      eat rest
                  | None -> fail "bad lsid %s" n)
              | "[exit" :: n :: rest -> (
                  match
                    int_of_string_opt (String.sub n 0 (String.length n - 1))
                  with
                  | Some v ->
                      exit_idx := v;
                      eat rest
                  | None -> fail "bad exit %s" n)
              | rest -> parse_targets rest
            in
            let targets = eat rest in
            Linstr
              (Instr.make ~id ~opcode ~pred ~imm:!imm ~targets ~lsid:!lsid
                 ~exit_idx:!exit_idx ()))
    | tok :: _ -> fail "unexpected line starting with %s" tok
    | [] -> Lblank

type builder = {
  mutable name : string;
  mutable instrs : Instr.t list;
  mutable reads : Block.read list;
  mutable writes : Block.write list;
  mutable stores : int list;
  mutable exits : (int * string) list;
}

let finish b =
  let exits =
    List.sort compare b.exits |> List.map snd |> Array.of_list
  in
  {
    Block.name = b.name;
    instrs = Array.of_list (List.rev b.instrs);
    reads = Array.of_list (List.rev b.reads);
    writes = Array.of_list (List.rev b.writes);
    store_lsids = List.sort_uniq compare b.stores;
    exits;
  }

let parse_blocks src =
  let lines = String.split_on_char '\n' src in
  let blocks = ref [] in
  let entry = ref None in
  let cur = ref None in
  let flush () =
    match !cur with
    | Some b ->
        blocks := finish b :: !blocks;
        cur := None
    | None -> ()
  in
  List.iteri
    (fun lineno raw ->
      try
        (* strip ; comments *)
        let raw =
          match String.index_opt raw ';' with
          | Some i -> String.sub raw 0 i
          | None -> raw
        in
        match parse_line raw with
        | Lblank -> ()
        | Lprogram e -> entry := Some e
        | Lblock name ->
            flush ();
            cur :=
              Some
                {
                  name;
                  instrs = [];
                  reads = [];
                  writes = [];
                  stores = [];
                  exits = [];
                }
        | other -> (
            match !cur with
            | None -> fail "directive outside a block"
            | Some b -> (
                match other with
                | Lread (rslot, reg, rtargets) ->
                    b.reads <- { Block.rslot; reg; rtargets } :: b.reads
                | Linstr i -> b.instrs <- i :: b.instrs
                | Lwrite (wslot, wreg) ->
                    b.writes <- { Block.wslot; wreg } :: b.writes
                | Lstores ls -> b.stores <- ls @ b.stores
                | Lexit (i, t) -> b.exits <- (i, t) :: b.exits
                | Lprogram _ | Lblock _ | Lblank -> assert false))
      with Bad m -> fail "line %d: %s" (lineno + 1) m)
    lines;
  flush ();
  (List.rev !blocks, !entry)

let parse_program src =
  match parse_blocks src with
  | exception Bad m -> Error m
  | [], _ -> Error "no blocks"
  | blocks, entry ->
      let entry =
        match entry with
        | Some e -> e
        | None -> (List.hd blocks).Block.name
      in
      Program.make ~entry blocks

let parse_block src =
  match parse_blocks src with
  | exception Bad m -> Error m
  | [ b ], _ -> Ok b
  | bs, _ -> Error (Printf.sprintf "expected one block, found %d" (List.length bs))
