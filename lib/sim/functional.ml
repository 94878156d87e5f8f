(* The functional simulator: the dataflow core driven by depth-first
   token delivery, with no timing model. A token that completes an
   instruction's inputs fires it at once, and the result is delivered
   into each consumer in turn before the producer's next target is
   visited, so there is no queue of pending tokens. Recursion depth is
   bounded by the block size.

   Legality: a block's dataflow firing is confluent. Every operand and
   predicate slot is write-once (a second delivery is a malformed-block
   fault) and a fire is a pure function of its inputs, so every
   delivery order that respects data dependences fires the same set and
   commits the same outputs. Two rules keep memory inside that
   argument: a load whose lower-LSID stores are not all resolved is
   deferred and retried whenever a store resolves, so it reads exactly
   the stores below it; and a null operand resolves its store at
   delivery (Section 4.2), whatever else is still in flight. *)

module Block = Edge_isa.Block
module Target = Edge_isa.Target
module Token = Edge_isa.Token
module Opcode = Edge_isa.Opcode
module Bi = Block_image
module Df = Dataflow

type outcome = { exit_taken : string option; faulted : string option }

let rec deliver df ~mem target tok =
  match target with
  | Target.To_write w -> Df.deliver_write df w tok
  | Target.To_instr { id; slot } ->
      let r = Df.deliver df id slot tok in
      if r >= 0 then fire df ~mem r
      else if r = Df.store_nulled then retry_loads df ~mem

and fire df ~mem id =
  let i = df.Df.img.Bi.instrs.(id) in
  match i.Bi.op with
  | Opcode.Ld _ ->
      if Df.lower_resolved df i.Bi.lsid then begin
        Df.fire df id;
        send_all df ~mem i.Bi.targets
          (Df.load df id ~mem (Df.stores_below df i.Bi.lsid))
      end
      else if not (List.mem id df.Df.deferred) then
        df.Df.deferred <- id :: df.Df.deferred
  | Opcode.St _ ->
      Df.fire df id;
      Df.resolve_store df i.Bi.lsid (Df.store_result df id);
      retry_loads df ~mem
  | Opcode.Bro | Opcode.Halt ->
      Df.fire df id;
      Df.resolve_branch df id
  | _ ->
      Df.fire df id;
      send_all df ~mem i.Bi.targets (Df.result df id)

and send_all df ~mem tgts tok =
  for k = 0 to Array.length tgts - 1 do
    deliver df ~mem tgts.(k) tok
  done

and retry_loads df ~mem =
  let loads = df.Df.deferred in
  df.Df.deferred <- [];
  List.iter (fun id -> if not df.Df.fired.(id) then fire df ~mem id) loads

(* execute the block [df] was prepared for and commit its outputs:
   register reads first, then the 0-operand unpredicated seeds *)
let exec_block df ~regs ~mem =
  let img = df.Df.img in
  match
    for rslot = 0 to Array.length img.Bi.reads - 1 do
      send_all df ~mem img.Bi.rtargets.(rslot)
        (Token.of_int64 regs.(img.Bi.reads.(rslot).Block.reg))
    done;
    let seeds = img.Bi.seeds in
    for k = 0 to Array.length seeds - 1 do
      if Df.ready df seeds.(k) then fire df ~mem seeds.(k)
    done;
    Df.commit df ~regs ~mem
  with
  | faulted -> Ok { exit_taken = df.Df.branch_tgt; faulted }
  | exception Df.Malformed m -> Error m

let run_block block ~regs ~mem ~stats =
  let img = Bi.of_block block in
  let df = Df.for_block img in
  Df.prepare df img ~stats;
  exec_block df ~regs ~mem

let run program ~regs ~mem =
  let stats = Stats.create () in
  let imgp = Bi.of_program program in
  let df = Df.for_program imgp in
  let rec go name fuel =
    if fuel <= 0 then Error "malformed: fuel exhausted"
    else
      match Bi.find_index imgp name with
      | None -> Error (Printf.sprintf "malformed: no block %s" name)
      | Some idx -> (
          Df.prepare df imgp.Bi.blocks.(idx) ~stats;
          match exec_block df ~regs ~mem with
          | Error m -> Error ("malformed: " ^ m)
          | Ok { faulted = Some f; _ } -> Error ("fault: " ^ f)
          | Ok { exit_taken = None; _ } -> Ok stats
          | Ok { exit_taken = Some next; _ } -> go next (fuel - 1))
  in
  go program.Edge_isa.Program.entry Df.block_limit
