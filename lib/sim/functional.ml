module Block = Edge_isa.Block
module Target = Edge_isa.Target
module Token = Edge_isa.Token
module Opcode = Edge_isa.Opcode
module Bi = Block_image
module Df = Dataflow

type outcome = { exit_taken : string option; faulted : string option }

(* The reference interpreter: the dataflow core plus a FIFO of pending
   token deliveries, a ring over two parallel arrays so the delivery
   loop never allocates tuples or queue cells. *)
type state = {
  df : Df.t;
  mutable q_tgt : Target.t array;
  mutable q_tok : Token.t array;
  mutable q_head : int;
  mutable q_len : int;
}

let make_state df =
  {
    df;
    q_tgt = Array.make 64 (Target.To_write 0);
    q_tok = Array.make 64 (Token.of_int64 0L);
    q_head = 0;
    q_len = 0;
  }

let q_push st tgt tok =
  let cap = Array.length st.q_tgt in
  if st.q_len = cap then begin
    let ntgt = Array.make (2 * cap) (Target.To_write 0) in
    let ntok = Array.make (2 * cap) (Token.of_int64 0L) in
    for i = 0 to st.q_len - 1 do
      let j = (st.q_head + i) land (cap - 1) in
      ntgt.(i) <- st.q_tgt.(j);
      ntok.(i) <- st.q_tok.(j)
    done;
    st.q_tgt <- ntgt;
    st.q_tok <- ntok;
    st.q_head <- 0
  end;
  let j = (st.q_head + st.q_len) land (Array.length st.q_tgt - 1) in
  st.q_tgt.(j) <- tgt;
  st.q_tok.(j) <- tok;
  st.q_len <- st.q_len + 1

let prepare st img ~stats =
  Df.prepare st.df img ~stats;
  st.q_head <- 0;
  st.q_len <- 0

let rec deliver st ~mem target tok =
  match target with
  | Target.To_write w -> Df.deliver_write st.df w tok
  | Target.To_instr { id; slot } ->
      let r = Df.deliver st.df id slot tok in
      if r >= 0 then fire st ~mem r
      else if r = Df.store_nulled then retry_loads st ~mem

and fire st ~mem id =
  let df = st.df in
  let i = df.Df.img.Bi.instrs.(id) in
  match i.Bi.op with
  | Opcode.Ld _ ->
      if Df.lower_resolved df i.Bi.lsid then begin
        Df.fire df id;
        send_all st ~mem i (Df.load df id ~mem (Df.stores_below df i.Bi.lsid))
      end
      else if not (List.mem id df.Df.deferred) then
        df.Df.deferred <- id :: df.Df.deferred
  | Opcode.St _ ->
      Df.fire df id;
      Df.resolve_store df i.Bi.lsid (Df.store_result df id);
      retry_loads st ~mem
  | Opcode.Bro | Opcode.Halt ->
      Df.fire df id;
      Df.resolve_branch df id
  | _ ->
      Df.fire df id;
      send_all st ~mem i (Df.result df id)

and send_all st ~mem (i : Bi.inst) tok =
  let tgts = i.Bi.targets in
  for k = 0 to Array.length tgts - 1 do
    q_push st tgts.(k) tok
  done;
  drain st ~mem

and retry_loads st ~mem =
  let loads = st.df.Df.deferred in
  st.df.Df.deferred <- [];
  List.iter (fun id -> if not st.df.Df.fired.(id) then fire st ~mem id) loads

and drain st ~mem =
  while st.q_len > 0 do
    let j = st.q_head in
    st.q_head <- (j + 1) land (Array.length st.q_tgt - 1);
    st.q_len <- st.q_len - 1;
    deliver st ~mem st.q_tgt.(j) st.q_tok.(j)
  done

(* execute the block [st] was prepared for and commit its outputs *)
let exec_block st ~regs ~mem =
  let df = st.df in
  let img = df.Df.img in
  match
    (* seed register reads, then 0-operand unpredicated instructions *)
    Array.iteri
      (fun rslot (r : Block.read) ->
        let tok = Token.of_int64 regs.(r.Block.reg) in
        Array.iter (fun tgt -> q_push st tgt tok) img.Bi.rtargets.(rslot))
      img.Bi.reads;
    Array.iter (fun id -> if Df.ready df id then fire st ~mem id) img.Bi.seeds;
    drain st ~mem;
    Df.commit df ~regs ~mem
  with
  | faulted -> Ok { exit_taken = df.Df.branch_tgt; faulted }
  | exception Df.Malformed m -> Error m

let run_block block ~regs ~mem ~stats =
  let img = Bi.of_block block in
  let st = make_state (Df.for_block img) in
  prepare st img ~stats;
  exec_block st ~regs ~mem

let run_interp program ~regs ~mem =
  let stats = Stats.create () in
  let imgp = Bi.of_program program in
  let st = make_state (Df.for_program imgp) in
  let rec go name fuel =
    if fuel <= 0 then Error "malformed: fuel exhausted"
    else
      match Bi.find_index imgp name with
      | None -> Error (Printf.sprintf "malformed: no block %s" name)
      | Some idx -> (
          prepare st imgp.Bi.blocks.(idx) ~stats;
          match exec_block st ~regs ~mem with
          | Error m -> Error ("malformed: " ^ m)
          | Ok { faulted = Some f; _ } -> Error ("fault: " ^ f)
          | Ok { exit_taken = None; _ } -> Ok stats
          | Ok { exit_taken = Some next; _ } -> go next (fuel - 1))
  in
  go program.Edge_isa.Program.entry Df.block_limit

(* ---- JIT dispatch ----

   [Block_jit] compiles block images to threaded-code closures over the
   same core; this interpreter remains the reference path, selected by
   [~jit:false] or [set_jit false] (the [--no-jit] flag). *)

let jit_default = ref true

let set_jit b = jit_default := b
let jit_enabled () = !jit_default

let run ?jit program ~regs ~mem =
  let use_jit = match jit with Some j -> j | None -> !jit_default in
  if use_jit then Block_jit.run program ~regs ~mem
  else run_interp program ~regs ~mem

module Engine = struct
  type nonrec state = state

  let make imgp = make_state (Df.for_program imgp)
  let prepare = prepare
  let exec_block = exec_block
  let frame st = st.df
end
