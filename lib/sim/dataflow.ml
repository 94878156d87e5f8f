(* One block instance's dataflow state and the token semantics of
   Sections 3-4, shared by every executor.

   The functional interpreter (and the in-order backend through it)
   delivers tokens into this core depth-first, and the grid's frames
   drive it from an event wheel. Everything that decides *what* a block
   computes lives here: predicate matching and predicate-OR (Section
   4.1), null-token output resolution (4.2), output-count completion
   (4.3), exception bits (4.4), LSID-ordered store resolution and
   store-to-load forwarding. The callers decide only *when* things
   happen.

   Operand slots are flat token arrays with set flags, so delivery
   never allocates. All arrays are capacity arrays: one frame is
   recycled across block instances and only the prefix covering the
   current image is live. *)

module Block = Edge_isa.Block
module Instr = Edge_isa.Instr
module Opcode = Edge_isa.Opcode
module Target = Edge_isa.Target
module Token = Edge_isa.Token
module Mem = Edge_isa.Mem
module Bi = Block_image

exception Malformed of string

let fail fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

let block_limit = 10_000_000

type stored = { addr : int64; value : int64; width : Opcode.width; exc : bool }
type store_res = Unresolved | Stored of stored | Nulled

type t = {
  mutable img : Bi.t;
  mutable stats : Stats.t;
  left : Token.t array;
  lset : bool array;
  right : Token.t array;
  rset : bool array;
  pred_matched : bool array;
  pred_exc : bool array;
  fired : bool array;
  writes : Token.t array;
  wset : bool array;
  stores : store_res array;
  mutable branch_set : bool;
  mutable branch_tgt : string option;
  mutable branch_exit : int;
  mutable branch_exc : bool;
  mutable outputs_left : int;
  mutable unres : int;
  mutable nstored : int;
  mutable deferred : int list;
}

let zero = Token.of_int64 0L

let create img ~n ~writes ~stores =
  let n = max 1 n and writes = max 1 writes in
  {
    img;
    stats = Stats.create ();
    left = Array.make n zero;
    lset = Array.make n false;
    right = Array.make n zero;
    rset = Array.make n false;
    pred_matched = Array.make n false;
    pred_exc = Array.make n false;
    fired = Array.make n false;
    writes = Array.make writes zero;
    wset = Array.make writes false;
    stores = Array.make (max 1 stores) Unresolved;
    branch_set = false;
    branch_tgt = None;
    branch_exit = 0;
    branch_exc = false;
    outputs_left = 0;
    unres = 0;
    nstored = 0;
    deferred = [];
  }

let for_block (img : Bi.t) =
  create img ~n:img.Bi.n ~writes:img.Bi.n_writes ~stores:img.Bi.n_stores

let for_program (p : Bi.program) =
  let img =
    if Array.length p.Bi.blocks > 0 then p.Bi.blocks.(0)
    else
      Bi.of_block
        {
          Block.name = "@none";
          instrs = [||];
          reads = [||];
          writes = [||];
          store_lsids = [];
          exits = [||];
        }
  in
  create img ~n:p.Bi.max_n ~writes:p.Bi.max_writes ~stores:p.Bi.max_stores

(* one fused pass per array family, bounds checked once up front: for
   the short blocks that dominate the BB configuration, separate fills
   cost more than the stores they perform *)
let prepare t (img : Bi.t) ~stats =
  if
    img.Bi.n > Array.length t.fired
    || img.Bi.n_writes > Array.length t.wset
    || img.Bi.n_stores > Array.length t.stores
  then invalid_arg "Dataflow.prepare: block exceeds the frame";
  t.img <- img;
  t.stats <- stats;
  for i = 0 to img.Bi.n - 1 do
    Array.unsafe_set t.lset i false;
    Array.unsafe_set t.rset i false;
    Array.unsafe_set t.pred_matched i false;
    Array.unsafe_set t.pred_exc i false;
    Array.unsafe_set t.fired i false
  done;
  for w = 0 to img.Bi.n_writes - 1 do
    Array.unsafe_set t.wset w false
  done;
  for k = 0 to img.Bi.n_stores - 1 do
    Array.unsafe_set t.stores k Unresolved
  done;
  t.branch_set <- false;
  t.branch_tgt <- None;
  t.branch_exit <- 0;
  t.branch_exc <- false;
  t.outputs_left <- img.Bi.outputs;
  t.unres <- img.Bi.n_stores;
  t.nstored <- 0;
  t.deferred <- [];
  stats.Stats.blocks_executed <- stats.Stats.blocks_executed + 1;
  stats.Stats.instrs_fetched <- stats.Stats.instrs_fetched + img.Bi.n

let cleared t =
  let img = t.img in
  let ok = ref (t.outputs_left = img.Bi.outputs && t.deferred = []) in
  for i = 0 to img.Bi.n - 1 do
    if t.lset.(i) || t.rset.(i) || t.pred_matched.(i) || t.pred_exc.(i)
       || t.fired.(i)
    then ok := false
  done;
  for w = 0 to img.Bi.n_writes - 1 do
    if t.wset.(w) then ok := false
  done;
  for k = 0 to img.Bi.n_stores - 1 do
    if t.stores.(k) <> Unresolved then ok := false
  done;
  !ok && not t.branch_set

let complete t = t.outputs_left = 0

(* ---------- readiness ---------- *)

let ready t id =
  (not t.fired.(id))
  &&
  let i = t.img.Bi.instrs.(id) in
  ((not i.Bi.predicated) || t.pred_matched.(id))
  &&
  match i.Bi.op with
  | Opcode.Sand ->
      (* short-circuit: a false left operand suffices (Section 7) *)
      t.lset.(id) && ((not (Token.as_predicate t.left.(id))) || t.rset.(id))
  | _ -> (i.Bi.arity < 1 || t.lset.(id)) && (i.Bi.arity < 2 || t.rset.(id))

(* ---------- outputs ---------- *)

let resolve_store t lsid r =
  let slot = Bi.store_slot_of t.img lsid in
  if slot < 0 then fail "store lsid %d not declared" lsid;
  (match t.stores.(slot) with
  | Unresolved -> ()
  | Stored _ | Nulled -> fail "store lsid %d resolved twice" lsid);
  t.stores.(slot) <- r;
  t.unres <- t.unres - 1;
  (match r with Stored _ -> t.nstored <- t.nstored + 1 | Unresolved | Nulled -> ());
  t.outputs_left <- t.outputs_left - 1

let deliver_write t w tok =
  if t.wset.(w) then fail "write slot %d received two tokens" w;
  t.wset.(w) <- true;
  t.writes.(w) <- tok;
  t.outputs_left <- t.outputs_left - 1

let resolve_branch t id =
  let i = t.img.Bi.instrs.(id) in
  if t.branch_set then fail "two branches fired";
  (match i.Bi.op with
  | Opcode.Halt ->
      t.branch_tgt <- None;
      t.branch_exit <- 0
  | _ ->
      t.branch_tgt <- t.img.Bi.exit_tgts.(i.Bi.exit_idx);
      t.branch_exit <- i.Bi.exit_idx);
  t.branch_set <- true;
  t.branch_exc <- t.pred_exc.(id);
  t.outputs_left <- t.outputs_left - 1

(* ---------- delivery ---------- *)

let absorbed = -1
let store_nulled = -2

let set_operand set arr id slot tok =
  if set.(id) then fail "I%d: operand %a delivered twice" id Target.pp_slot slot;
  set.(id) <- true;
  arr.(id) <- tok

let deliver t id slot tok =
  let i = t.img.Bi.instrs.(id) in
  match slot with
  | Target.Pred ->
      if not i.Bi.predicated then
        fail "I%d: predicate delivered to unpredicated instruction" id;
      (* non-matching arrivals are ignored (Section 4.1) *)
      if Instr.predicate_matches i.Bi.pred tok then begin
        if t.pred_matched.(id) then fail "I%d: two matching predicates" id;
        t.pred_matched.(id) <- true;
        t.pred_exc.(id) <- tok.Token.exc;
        if ready t id then id else absorbed
      end
      else absorbed
  | Target.Left | Target.Right ->
      if i.Bi.is_store && tok.Token.null then begin
        (* a null operand resolves its store at once (Section 4.2) *)
        if t.fired.(id) then fail "I%d: null for fired store" id;
        t.fired.(id) <- true;
        t.stats.Stats.nulls_executed <- t.stats.Stats.nulls_executed + 1;
        resolve_store t i.Bi.lsid Nulled;
        store_nulled
      end
      else begin
        (match slot with
        | Target.Left -> set_operand t.lset t.left id slot tok
        | Target.Right | Target.Pred -> set_operand t.rset t.right id slot tok);
        if ready t id then id else absorbed
      end

(* ---------- firing ---------- *)

let fire t id =
  t.fired.(id) <- true;
  let s = t.stats in
  s.Stats.instrs_executed <- s.Stats.instrs_executed + 1;
  match t.img.Bi.instrs.(id).Bi.cls with
  | Bi.Smove -> s.Stats.moves_executed <- s.Stats.moves_executed + 1
  | Bi.Snull -> s.Stats.nulls_executed <- s.Stats.nulls_executed + 1
  | Bi.Stest -> s.Stats.tests_executed <- s.Stats.tests_executed + 1
  | Bi.Splain -> ()

(* an instruction whose matching predicate carried an exception fires
   with an exception-tagged output (Section 4.4) *)
let taint_pred t id tok = if t.pred_exc.(id) then Token.with_exc tok else tok

let result t id =
  let i = t.img.Bi.instrs.(id) in
  taint_pred t id
    (Alu.exec i.Bi.op ~imm:i.Bi.imm ~left:t.left.(id) ~right:t.right.(id))

let address t id = Int64.add t.left.(id).Token.payload t.img.Bi.instrs.(id).Bi.imm

let lower_resolved t lsid =
  t.unres = 0
  ||
  let img = t.img in
  let rec go k =
    k >= img.Bi.n_stores
    || (img.Bi.store_lsids.(k) >= lsid
       || match t.stores.(k) with Unresolved -> false | Stored _ | Nulled -> true)
       && go (k + 1)
  in
  go 0

let stores_below t lsid =
  if t.nstored = 0 then []
  else begin
    let img = t.img in
    let acc = ref [] in
    for k = img.Bi.n_stores - 1 downto 0 do
      let slot = img.Bi.store_order.(k) in
      if img.Bi.store_lsids.(slot) < lsid then
        match t.stores.(slot) with
        | Stored s -> acc := s :: !acc
        | Unresolved | Nulled -> ()
    done;
    !acc
  end

(* Byte-accurate store-to-load forwarding: start from the bytes memory
   holds, then overlay every store the load must see, oldest first. A
   store that covers any loaded byte and carries an exception taints
   the load. With nothing to overlay the merge would rebuild [mem_tok]
   exactly (same bytes, same sign extension), so it is skipped. *)
let overlay ~width ~addr (mem_tok : Token.t) stores =
  if mem_tok.Token.exc || stores = [] then mem_tok
  else begin
    let nbytes = Mem.width_bytes width in
    let bytes = Bytes.create nbytes in
    let byte v i =
      Char.chr
        (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
    in
    for i = 0 to nbytes - 1 do
      Bytes.set bytes i (byte mem_tok.Token.payload i)
    done;
    let exc = ref false in
    List.iter
      (fun s ->
        for i = 0 to Mem.width_bytes s.width - 1 do
          let off = Int64.sub (Int64.add s.addr (Int64.of_int i)) addr in
          if off >= 0L && off < Int64.of_int nbytes then begin
            if s.exc then exc := true;
            Bytes.set bytes (Int64.to_int off) (byte s.value i)
          end
        done)
      stores;
    let v = ref 0L in
    for i = nbytes - 1 downto 0 do
      v :=
        Int64.logor (Int64.shift_left !v 8)
          (Int64.of_int (Char.code (Bytes.get bytes i)))
    done;
    (* sign extension for sub-word loads *)
    let v =
      match width with
      | Opcode.W1 ->
          if Int64.logand !v 0x80L <> 0L then Int64.logor !v (Int64.lognot 0xFFL)
          else !v
      | Opcode.W4 ->
          if Int64.logand !v 0x80000000L <> 0L then
            Int64.logor !v (Int64.lognot 0xFFFFFFFFL)
          else !v
      | Opcode.W8 -> !v
    in
    let tok = Token.of_int64 v in
    if !exc then Token.with_exc tok else tok
  end

let load t id ~mem stores =
  let i = t.img.Bi.instrs.(id) in
  let base = t.left.(id) in
  let tok =
    if base.Token.exc || base.Token.null then Token.taint base zero
    else
      let width = match i.Bi.op with Opcode.Ld w -> w | _ -> assert false in
      let addr = Int64.add base.Token.payload i.Bi.imm in
      overlay ~width ~addr (Mem.load mem ~width ~addr) stores
  in
  taint_pred t id (Token.taint base tok)

let store_result t id =
  let i = t.img.Bi.instrs.(id) in
  let base = t.left.(id) and v = t.right.(id) in
  if v.Token.null || base.Token.null then Nulled
  else
    Stored
      {
        addr = Int64.add base.Token.payload i.Bi.imm;
        value = v.Token.payload;
        width = (match i.Bi.op with Opcode.St w -> w | _ -> assert false);
        exc = base.Token.exc || v.Token.exc || t.pred_exc.(id);
      }

(* ---------- completion and commit ---------- *)

let deadlock t =
  let img = t.img in
  let missing = Buffer.create 64 in
  for w = 0 to img.Bi.n_writes - 1 do
    if not t.wset.(w) then Buffer.add_string missing (Printf.sprintf " W%d" w)
  done;
  for k = 0 to img.Bi.n_stores - 1 do
    if t.stores.(k) = Unresolved then
      Buffer.add_string missing (Printf.sprintf " S%d" img.Bi.store_lsids.(k))
  done;
  if not t.branch_set then Buffer.add_string missing " branch";
  fail "block %s deadlocked; missing:%s" img.Bi.name (Buffer.contents missing)

(* Commit order: stores by LSID, then register writes by slot, then the
   branch. The first exceptional output stops the commit and names the
   fault (Section 4.4); null outputs change nothing (4.2). *)
let rec commit_stores t mem k =
  let img = t.img in
  if k >= img.Bi.n_stores then None
  else
    let slot = img.Bi.store_order.(k) in
    match t.stores.(slot) with
    | Stored { exc = true; _ } ->
        Some (Printf.sprintf "store lsid %d" img.Bi.store_lsids.(slot))
    | Stored { addr; value; width; exc = false } -> (
        match Mem.store mem ~width ~addr value with
        | Ok () -> commit_stores t mem (k + 1)
        | Error () -> Some (Printf.sprintf "store fault at %Ld" addr))
    | Nulled -> commit_stores t mem (k + 1)
    | Unresolved -> assert false

let rec commit_writes t regs w =
  let img = t.img in
  if w >= img.Bi.n_writes then if t.branch_exc then Some "branch" else None
  else
    let tok = t.writes.(w) in
    if tok.Token.null then commit_writes t regs (w + 1)
    else if tok.Token.exc then Some (Printf.sprintf "write W%d" w)
    else begin
      regs.(img.Bi.write_regs.(w)) <- tok.Token.payload;
      commit_writes t regs (w + 1)
    end

let commit t ~regs ~mem =
  if not (complete t) then deadlock t;
  let s = t.stats in
  let pred_ids = t.img.Bi.pred_ids in
  for k = 0 to Array.length pred_ids - 1 do
    if not t.fired.(pred_ids.(k)) then
      s.Stats.mispredicated_fetched <- s.Stats.mispredicated_fetched + 1
  done;
  s.Stats.blocks_committed <- s.Stats.blocks_committed + 1;
  match commit_stores t mem 0 with
  | None -> commit_writes t regs 0
  | fault -> fault
