type read = { rslot : int; reg : int; rtargets : Target.t list }
type write = { wslot : int; wreg : int }

type t = {
  name : string;
  instrs : Instr.t array;
  reads : read array;
  writes : write array;
  store_lsids : int list;
  exits : string array;
}

let max_instrs = 128
let max_reads = 32
let max_writes = 32
let max_lsids = 32
let halt_exit = "@halt"

let size_in_words t =
  Array.fold_left (fun acc i -> acc + Encode.words i) 0 t.instrs

(* Operand positions that must receive at least one token for the
   instruction to ever fire. *)
let required_slots (i : Instr.t) =
  let arity = Opcode.num_operands i.opcode in
  let data =
    if arity >= 2 then [ Target.Left; Target.Right ]
    else if arity = 1 then [ Target.Left ]
    else []
  in
  if Instr.is_predicated i then Target.Pred :: data else data

let validate t =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let n = Array.length t.instrs in
  let nw = Array.length t.writes in
  (* one pass over every target: which operand slots (instruction slot
     [idx], operand [slot] at [3 * idx + code slot]) and which write
     slots have a producer; nulls that satisfy writes/stores count as
     producers of those outputs *)
  let code = function Target.Left -> 0 | Target.Right -> 1 | Target.Pred -> 2 in
  let operand_produced = Array.make (3 * n) false in
  let write_produced = Array.make nw false in
  let mark = function
    | Target.To_instr { id; slot } ->
        if id >= 0 && id < n then operand_produced.((3 * id) + code slot) <- true
    | Target.To_write w -> if w >= 0 && w < nw then write_produced.(w) <- true
  in
  Array.iter (fun (i : Instr.t) -> List.iter mark i.targets) t.instrs;
  Array.iter (fun r -> List.iter mark r.rtargets) t.reads;
  let produced idx slot = operand_produced.((3 * idx) + code slot) in
  if n > max_instrs then err "block has %d instructions (max %d)" n max_instrs;
  let words = size_in_words t in
  if words > max_instrs then
    err "block body is %d words (max %d)" words max_instrs;
  if Array.length t.reads > max_reads then
    err "block has %d reads (max %d)" (Array.length t.reads) max_reads;
  if nw > max_writes then err "block has %d writes (max %d)" nw max_writes;
  if List.length t.store_lsids > max_lsids then
    err "block declares %d store lsids (max %d)"
      (List.length t.store_lsids) max_lsids;
  let rec sorted_distinct = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as tl) -> a < b && sorted_distinct tl
  in
  if not (sorted_distinct t.store_lsids) then
    err "store lsids must be sorted and distinct";
  Array.iteri
    (fun idx (i : Instr.t) ->
      if i.id <> idx then err "I%d: id %d does not match slot" idx i.id;
      if Instr.is_predicated i && not (Opcode.predicatable i.opcode) then
        err "I%d: opcode %s may not be predicated" idx
          (Opcode.mnemonic i.opcode);
      if List.length i.targets > Opcode.max_targets i.opcode then
        err "I%d: %d targets exceed the %s limit" idx (List.length i.targets)
          (Opcode.mnemonic i.opcode);
      (match i.opcode with
      | Opcode.Ld _ | Opcode.St _ ->
          if i.lsid < 0 || i.lsid > 31 then
            err "I%d: memory instruction needs an lsid in 0..31" idx
          else if
            (match i.opcode with Opcode.St _ -> true | _ -> false)
            && not (List.mem i.lsid t.store_lsids)
          then err "I%d: store lsid %d not declared" idx i.lsid
      | Opcode.Bro ->
          if i.exit_idx < 0 || i.exit_idx >= Array.length t.exits then
            err "I%d: bro exit index %d out of range" idx i.exit_idx
      | _ -> ());
      List.iter
        (function
          | Target.To_instr { id = d; slot } -> (
              if d < 0 || d >= n then err "I%d: target I%d out of range" idx d
              else
                let dst = t.instrs.(d) in
                let arity = Opcode.num_operands dst.opcode in
                match slot with
                | Target.Left ->
                    if arity < 1 then
                      err "I%d: targets left operand of 0-ary I%d" idx d
                | Target.Right ->
                    if arity < 2 then
                      err "I%d: targets right operand of %d-ary I%d" idx arity
                        d
                | Target.Pred ->
                    if not (Instr.is_predicated dst) then
                      err "I%d: targets predicate of unpredicated I%d" idx d)
          | Target.To_write w ->
              if w < 0 || w >= nw then
                err "I%d: write slot %d out of range" idx w)
        i.targets)
    t.instrs;
  (* Every required operand must have at least one producer. *)
  Array.iteri
    (fun idx (i : Instr.t) ->
      List.iter
        (fun slot ->
          if not (produced idx slot) then
            err "I%d: operand %a has no producer" idx Target.pp_slot slot)
        (required_slots i))
    t.instrs;
  Array.iteri
    (fun idx w ->
      if w.wslot <> idx then err "W%d: slot mismatch" idx;
      if w.wreg < 0 || w.wreg > 127 then err "W%d: register out of range" idx;
      if not write_produced.(idx) then err "W%d: no producer" idx)
    t.writes;
  Array.iteri
    (fun idx r ->
      if r.rslot <> idx then err "R%d: slot mismatch" idx;
      if r.reg < 0 || r.reg > 127 then err "R%d: register out of range" idx;
      if List.length r.rtargets > 2 then err "R%d: more than 2 targets" idx;
      List.iter
        (function
          | Target.To_instr { id = d; slot } -> (
              if d < 0 || d >= n then err "R%d: target out of range" idx
              else
                match slot with
                | Target.Pred ->
                    if not (Instr.is_predicated t.instrs.(d)) then
                      err "R%d: targets predicate of unpredicated I%d" idx d
                | Target.Left | Target.Right -> ())
          | Target.To_write w ->
              if w < 0 || w >= nw then err "R%d: write slot out of range" idx)
        r.rtargets)
    t.reads;
  (* Unpredicated instructions must not receive predicate tokens. *)
  Array.iteri
    (fun idx (i : Instr.t) ->
      if (not (Instr.is_predicated i)) && produced idx Target.Pred then
        err "I%d: unpredicated but receives a predicate" idx)
    t.instrs;
  if
    not
      (Array.exists
         (fun (i : Instr.t) -> Opcode.is_branch i.opcode)
         t.instrs)
  then err "block has no exit instruction";
  (* Every declared store lsid needs at least one store carrying it. *)
  List.iter
    (fun lsid ->
      let covered =
        Array.exists
          (fun (i : Instr.t) ->
            match i.opcode with Opcode.St _ -> i.lsid = lsid | _ -> false)
          t.instrs
      in
      if not covered then err "declared store lsid %d has no store" lsid)
    t.store_lsids;
  match !errs with [] -> Ok () | es -> Error (List.rev es)

let pp ppf t =
  Format.fprintf ppf "@[<v>block %s@," t.name;
  Array.iter
    (fun r ->
      Format.fprintf ppf "  R%-2d read g%d" r.rslot r.reg;
      List.iter (fun tg -> Format.fprintf ppf " -> %a" Target.pp tg) r.rtargets;
      Format.fprintf ppf "@,")
    t.reads;
  Array.iter (fun i -> Format.fprintf ppf "  %a@," Instr.pp i) t.instrs;
  Array.iter
    (fun w -> Format.fprintf ppf "  W%-2d write g%d@," w.wslot w.wreg)
    t.writes;
  if t.store_lsids <> [] then (
    Format.fprintf ppf "  stores:";
    List.iter (fun l -> Format.fprintf ppf " %d" l) t.store_lsids;
    Format.fprintf ppf "@,");
  Array.iteri (fun i e -> Format.fprintf ppf "  exit %d: %s@," i e) t.exits;
  Format.fprintf ppf "@]"
