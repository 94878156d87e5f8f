module Block = Edge_isa.Block
module Instr = Edge_isa.Instr
module Opcode = Edge_isa.Opcode
module Target = Edge_isa.Target
module Token = Edge_isa.Token
module Mem = Edge_isa.Mem
module Bi = Block_image

type outcome = { exit_taken : string option; faulted : string option }

exception Malformed of string

type store_resolution =
  | Unresolved
  | Stored of { addr : int64; value : int64; width : Opcode.width; exc : bool }
  | Nulled

(* Execution state over a decoded block image. The arrays are capacity
   arrays: [run] reuses one state across every block of the chain
   (cleared up to the current image's counts before each block), while
   [run_block] sizes them exactly. *)
type state = {
  mutable img : Bi.t;
  left : Token.t option array;
  right : Token.t option array;
  pred_matched : bool array;  (* matching predicate arrived *)
  pred_exc : bool array;  (* the matching predicate carried an exception *)
  fired : bool array;
  writes : Token.t option array;
  stores : store_resolution array;  (* per declared store slot *)
  mutable branch : (string option * bool) option;  (* target, exc *)
  mutable pending_loads : int list;  (* instr ids deferred on LSID order *)
  (* pending token deliveries: a FIFO ring over two parallel arrays so
     the hot delivery loop never allocates tuples or queue cells *)
  mutable q_tgt : Target.t array;
  mutable q_tok : Token.t array;
  mutable q_head : int;
  mutable q_len : int;
}

let fail fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

let make_state ~cap_n ~cap_w ~cap_s img =
  {
    img;
    left = Array.make (max 1 cap_n) None;
    right = Array.make (max 1 cap_n) None;
    pred_matched = Array.make (max 1 cap_n) false;
    pred_exc = Array.make (max 1 cap_n) false;
    fired = Array.make (max 1 cap_n) false;
    writes = Array.make (max 1 cap_w) None;
    stores = Array.make (max 1 cap_s) Unresolved;
    branch = None;
    pending_loads = [];
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

(* point [st] at [img] and clear the live prefix *)
let prepare st img =
  st.img <- img;
  let n = img.Bi.n in
  Array.fill st.left 0 n None;
  Array.fill st.right 0 n None;
  Array.fill st.pred_matched 0 n false;
  Array.fill st.pred_exc 0 n false;
  Array.fill st.fired 0 n false;
  Array.fill st.writes 0 img.Bi.n_writes None;
  Array.fill st.stores 0 img.Bi.n_stores Unresolved;
  st.branch <- None;
  st.pending_loads <- [];
  st.q_head <- 0;
  st.q_len <- 0

let store_slot st lsid =
  let slot = Bi.store_slot_of st.img lsid in
  if slot < 0 then fail "store lsid %d not declared" lsid;
  slot

let resolve_store st lsid r =
  let slot = store_slot st lsid in
  (match st.stores.(slot) with
  | Unresolved -> ()
  | Stored _ | Nulled -> fail "store lsid %d resolved twice" lsid);
  st.stores.(slot) <- r

let lower_lsids_resolved st lsid =
  let img = st.img in
  let rec go k =
    k >= img.Bi.n_stores
    || (img.Bi.store_lsids.(k) >= lsid
        || match st.stores.(k) with Unresolved -> false | _ -> true)
       && go (k + 1)
  in
  go 0

(* Byte-accurate store-to-load forwarding: read the load's bytes from
   memory, then overlay every resolved store with a lower LSID, in LSID
   order. *)
let read_with_forwarding st ~mem ~width ~addr ~lsid =
  let nbytes = Mem.width_bytes width in
  let base_tok = Mem.load mem ~width ~addr in
  if base_tok.Token.exc then base_tok
  else begin
    let bytes = Bytes.create nbytes in
    for i = 0 to nbytes - 1 do
      Bytes.set bytes i
        (Char.chr
           (Int64.to_int
              (Int64.logand
                 (Int64.shift_right_logical base_tok.Token.payload (8 * i))
                 0xFFL)))
    done;
    let exc = ref false in
    let img = st.img in
    for k = 0 to img.Bi.n_stores - 1 do
      let slot = img.Bi.store_order.(k) in
      if img.Bi.store_lsids.(slot) < lsid then
        match st.stores.(slot) with
        | Stored { addr = sa; value; width = sw; exc = se } ->
            let sbytes = Mem.width_bytes sw in
            for i = 0 to sbytes - 1 do
              let byte_addr = Int64.add sa (Int64.of_int i) in
              let off = Int64.sub byte_addr addr in
              if off >= 0L && off < Int64.of_int nbytes then begin
                if se then exc := true;
                Bytes.set bytes (Int64.to_int off)
                  (Char.chr
                     (Int64.to_int
                        (Int64.logand
                           (Int64.shift_right_logical value (8 * i))
                           0xFFL)))
              end
            done
        | Unresolved | Nulled -> ()
    done;
    let v = ref 0L in
    for i = nbytes - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get bytes i)))
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

let is_complete st =
  let img = st.img in
  let rec writes_done w =
    w >= img.Bi.n_writes || (Option.is_some st.writes.(w) && writes_done (w + 1))
  in
  let rec stores_done k =
    k >= img.Bi.n_stores
    || ((match st.stores.(k) with Unresolved -> false | _ -> true)
       && stores_done (k + 1))
  in
  writes_done 0 && stores_done 0 && Option.is_some st.branch

let ready st id =
  let i = st.img.Bi.instrs.(id) in
  if st.fired.(id) then false
  else
    let data_ok =
      match i.Bi.op with
      | Opcode.Sand -> (
          (* short-circuit: a false left operand suffices (Section 7) *)
          match st.left.(id) with
          | Some l -> (not (Token.as_predicate l)) || Option.is_some st.right.(id)
          | None -> false)
      | _ ->
          (i.Bi.arity < 1 || Option.is_some st.left.(id))
          && (i.Bi.arity < 2 || Option.is_some st.right.(id))
    in
    let pred_ok = (not i.Bi.predicated) || st.pred_matched.(id) in
    data_ok && pred_ok

let rec deliver st ~mem ~stats target tok =
  match target with
  | Target.To_write w -> (
      match st.writes.(w) with
      | Some _ -> fail "write slot %d received two tokens" w
      | None -> st.writes.(w) <- Some tok)
  | Target.To_instr { id; slot } -> (
      let i = st.img.Bi.instrs.(id) in
      match slot with
      | Target.Pred ->
          if not i.Bi.predicated then
            fail "I%d: predicate delivered to unpredicated instruction" id;
          if Instr.predicate_matches i.Bi.pred tok then begin
            if st.pred_matched.(id) then
              fail "I%d: two matching predicates" id;
            st.pred_matched.(id) <- true;
            st.pred_exc.(id) <- tok.Token.exc;
            try_fire st ~mem ~stats id
          end
          (* non-matching arrivals are ignored (Section 4.1) *)
      | Target.Left | Target.Right ->
          (* a null token arriving at a store resolves it immediately as a
             null store (Section 4.2) *)
          if i.Bi.is_store && tok.Token.null then begin
            if st.fired.(id) then fail "I%d: null for fired store" id;
            st.fired.(id) <- true;
            stats.Stats.nulls_executed <- stats.Stats.nulls_executed + 1;
            resolve_store st i.Bi.lsid Nulled;
            retry_loads st ~mem ~stats
          end
          else begin
            let arr =
              match slot with
              | Target.Left -> st.left
              | Target.Right -> st.right
              | Target.Pred -> assert false
            in
            (match arr.(id) with
            | Some _ -> fail "I%d: operand %a delivered twice" id Target.pp_slot slot
            | None -> arr.(id) <- Some tok);
            try_fire st ~mem ~stats id
          end)

and try_fire st ~mem ~stats id =
  if ready st id then fire st ~mem ~stats id

and fire st ~mem ~stats id =
  let i = st.img.Bi.instrs.(id) in
  let taint_pred tok =
    if st.pred_exc.(id) then Token.with_exc tok else tok
  in
  match i.Bi.op with
  | Opcode.Ld width ->
      (* defer when a lower-LSID declared store is still unresolved *)
      if not (lower_lsids_resolved st i.Bi.lsid) then begin
        if not (List.mem id st.pending_loads) then
          st.pending_loads <- id :: st.pending_loads
      end
      else begin
        st.fired.(id) <- true;
        stats.Stats.instrs_executed <- stats.Stats.instrs_executed + 1;
        let base =
          match st.left.(id) with Some t -> t | None -> assert false
        in
        let addr = Alu.effective_address ~base ~imm:i.Bi.imm in
        let tok =
          if base.Token.exc || base.Token.null then
            Token.taint base (Token.of_int64 0L)
          else read_with_forwarding st ~mem ~width ~addr ~lsid:i.Bi.lsid
        in
        let tok = taint_pred (Token.taint base tok) in
        send_all st ~mem ~stats i tok
      end
  | Opcode.St width ->
      st.fired.(id) <- true;
      stats.Stats.instrs_executed <- stats.Stats.instrs_executed + 1;
      let base = match st.left.(id) with Some t -> t | None -> assert false in
      let v = match st.right.(id) with Some t -> t | None -> assert false in
      if v.Token.null || base.Token.null then begin
        resolve_store st i.Bi.lsid Nulled;
        retry_loads st ~mem ~stats
      end
      else begin
        let addr = Alu.effective_address ~base ~imm:i.Bi.imm in
        let exc = base.Token.exc || v.Token.exc || st.pred_exc.(id) in
        resolve_store st i.Bi.lsid
          (Stored { addr; value = v.Token.payload; width; exc });
        retry_loads st ~mem ~stats
      end
  | Opcode.Bro ->
      st.fired.(id) <- true;
      stats.Stats.instrs_executed <- stats.Stats.instrs_executed + 1;
      (match st.branch with
      | Some _ -> fail "two branches fired"
      | None ->
          let tgt = st.img.Bi.exits.(i.Bi.exit_idx) in
          let tgt = if String.equal tgt Block.halt_exit then None else Some tgt in
          st.branch <- Some (tgt, st.pred_exc.(id)))
  | Opcode.Halt ->
      st.fired.(id) <- true;
      stats.Stats.instrs_executed <- stats.Stats.instrs_executed + 1;
      (match st.branch with
      | Some _ -> fail "two branches fired"
      | None -> st.branch <- Some (None, st.pred_exc.(id)))
  | Opcode.Sand ->
      st.fired.(id) <- true;
      stats.Stats.instrs_executed <- stats.Stats.instrs_executed + 1;
      stats.Stats.tests_executed <- stats.Stats.tests_executed + 1;
      let l = match st.left.(id) with Some t -> t | None -> assert false in
      let tok =
        if not (Token.as_predicate l) then Token.taint l (Token.of_int64 0L)
        else
          let r = match st.right.(id) with Some t -> t | None -> assert false in
          Token.taint l
            (Token.taint r
               (Token.of_int64 (if Token.as_predicate r then 1L else 0L)))
      in
      send_all st ~mem ~stats i (taint_pred tok)
  | Opcode.Iop _ | Opcode.Iopi _ | Opcode.Tst _ | Opcode.Tsti _ | Opcode.Fop _
  | Opcode.Ftst _ | Opcode.Un _ | Opcode.Movi | Opcode.Geni | Opcode.Mov4
  | Opcode.Null ->
      st.fired.(id) <- true;
      stats.Stats.instrs_executed <- stats.Stats.instrs_executed + 1;
      (match i.Bi.cls with
      | Bi.Smove -> stats.Stats.moves_executed <- stats.Stats.moves_executed + 1
      | Bi.Snull -> stats.Stats.nulls_executed <- stats.Stats.nulls_executed + 1
      | Bi.Stest -> stats.Stats.tests_executed <- stats.Stats.tests_executed + 1
      | Bi.Splain -> ());
      let tok =
        Alu.exec i.Bi.op ~imm:i.Bi.imm ~left:st.left.(id) ~right:st.right.(id)
      in
      send_all st ~mem ~stats i (taint_pred tok)

and send_all st ~mem ~stats (i : Bi.inst) tok =
  let tgts = i.Bi.targets in
  for k = 0 to Array.length tgts - 1 do
    q_push st tgts.(k) tok
  done;
  drain st ~mem ~stats

and retry_loads st ~mem ~stats =
  let loads = st.pending_loads in
  st.pending_loads <- [];
  List.iter
    (fun id -> if not st.fired.(id) then fire st ~mem ~stats id)
    loads

and drain st ~mem ~stats =
  while st.q_len > 0 do
    let j = st.q_head in
    st.q_head <- (j + 1) land (Array.length st.q_tgt - 1);
    st.q_len <- st.q_len - 1;
    deliver st ~mem ~stats st.q_tgt.(j) st.q_tok.(j)
  done

(* execute the block [st] was prepared for and commit its outputs *)
let exec_block st ~regs ~mem ~stats =
  match
    let img = st.img in
    stats.Stats.blocks_executed <- stats.Stats.blocks_executed + 1;
    stats.Stats.instrs_fetched <- stats.Stats.instrs_fetched + img.Bi.n;
    (* seed register reads *)
    Array.iteri
      (fun rslot (r : Block.read) ->
        let tok = Token.of_int64 regs.(r.Block.reg) in
        Array.iter (fun tgt -> q_push st tgt tok) img.Bi.rtargets.(rslot))
      img.Bi.reads;
    (* seed 0-operand unpredicated instructions *)
    Array.iter (fun id -> try_fire st ~mem ~stats id) img.Bi.seeds;
    drain st ~mem ~stats;
    if not (is_complete st) then begin
      let missing = Buffer.create 64 in
      for w = 0 to img.Bi.n_writes - 1 do
        if st.writes.(w) = None then
          Buffer.add_string missing (Printf.sprintf " W%d" w)
      done;
      for k = 0 to img.Bi.n_stores - 1 do
        if st.stores.(k) = Unresolved then
          Buffer.add_string missing
            (Printf.sprintf " S%d" img.Bi.store_lsids.(k))
      done;
      if st.branch = None then Buffer.add_string missing " branch";
      fail "block %s deadlocked; missing:%s" img.Bi.name
        (Buffer.contents missing)
    end;
    (* count mispredicated (fetched but never fired) instructions *)
    Array.iteri
      (fun id (i : Bi.inst) ->
        if i.Bi.predicated && not st.fired.(id) then
          stats.Stats.mispredicated_fetched <-
            stats.Stats.mispredicated_fetched + 1)
      img.Bi.instrs;
    (* commit: stores in LSID order, then register writes *)
    let fault = ref None in
    for k = 0 to img.Bi.n_stores - 1 do
      let slot = img.Bi.store_order.(k) in
      match st.stores.(slot) with
      | Stored { addr; value; width; exc } ->
          if exc then
            fault := Some (Printf.sprintf "store lsid %d" img.Bi.store_lsids.(slot))
          else (
            match Mem.store mem ~width ~addr value with
            | Ok () -> ()
            | Error () ->
                fault := Some (Printf.sprintf "store fault at %Ld" addr))
      | Nulled -> ()
      | Unresolved -> assert false
    done;
    for w = 0 to img.Bi.n_writes - 1 do
      match st.writes.(w) with
      | Some t ->
          if t.Token.null then ()
          else if t.Token.exc then
            fault := Some (Printf.sprintf "write W%d" w)
          else regs.(img.Bi.write_regs.(w)) <- t.Token.payload
      | None -> assert false
    done;
    let exit_taken, branch_exc =
      match st.branch with Some (t, e) -> (t, e) | None -> assert false
    in
    if branch_exc then fault := Some "branch";
    stats.Stats.blocks_committed <- stats.Stats.blocks_committed + 1;
    Ok { exit_taken; faulted = !fault }
  with
  | r -> r
  | exception Malformed m -> Error m

let run_block block ~regs ~mem ~stats =
  let img = Bi.of_block block in
  let st =
    make_state ~cap_n:img.Bi.n ~cap_w:img.Bi.n_writes ~cap_s:img.Bi.n_stores img
  in
  prepare st img;
  exec_block st ~regs ~mem ~stats

(* a capacity-sized state for the whole program; [prepare] repoints it
   per block *)
let state_for_program (imgp : Bi.program) =
  make_state ~cap_n:imgp.Bi.max_n ~cap_w:imgp.Bi.max_writes
    ~cap_s:imgp.Bi.max_stores
    (* a placeholder image *)
    (if Array.length imgp.Bi.blocks > 0 then imgp.Bi.blocks.(0)
     else
       Bi.of_block
         {
           Block.name = "@none";
           instrs = [||];
           reads = [||];
           writes = [||];
           store_lsids = [];
           exits = [||];
         })

let run_interp ?(fuel_blocks = 10_000_000) program ~regs ~mem =
  let stats = Stats.create () in
  let imgp = Bi.of_program program in
  let st = state_for_program imgp in
  let rec go name fuel =
    if fuel <= 0 then Error "malformed: fuel exhausted"
    else
      match Bi.find_index imgp name with
      | None -> Error (Printf.sprintf "malformed: no block %s" name)
      | Some idx -> (
          prepare st imgp.Bi.blocks.(idx);
          match exec_block st ~regs ~mem ~stats with
          | Error m -> Error ("malformed: " ^ m)
          | Ok { faulted = Some f; _ } -> Error ("fault: " ^ f)
          | Ok { exit_taken = None; _ } -> Ok stats
          | Ok { exit_taken = Some next; _ } -> go next (fuel - 1))
  in
  go program.Edge_isa.Program.entry fuel_blocks

(* ---- JIT dispatch ----

   [Block_jit] compiles block images to threaded-code closures with
   identical architectural semantics; this interpreter remains the
   reference path, selected by [~jit:false] or [set_jit false] (the
   [--no-jit] flag). *)

let jit_default = ref true

let set_jit b = jit_default := b
let jit_enabled () = !jit_default

let run ?fuel_blocks ?jit program ~regs ~mem =
  let use_jit = match jit with Some j -> j | None -> !jit_default in
  if use_jit then Block_jit.run ?fuel_blocks program ~regs ~mem
  else run_interp ?fuel_blocks program ~regs ~mem

(* ---- the reusable per-block engine ----

   [Inorder_sim] runs blocks through exactly this interpreter for
   architectural state (so it can never diverge from the functional
   simulator) and layers a timing model on top, reading back which
   instructions fired and the operands its cost model needs. *)

module Engine = struct
  type nonrec state = state

  let make = state_for_program
  let prepare = prepare
  let exec_block = exec_block
  let fired st id = st.fired.(id)
  let left_operand st id = st.left.(id)
  let right_operand st id = st.right.(id)
end
