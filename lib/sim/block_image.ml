(* Decode-once block images.

   Both simulators used to re-derive per-instruction facts (operand
   arity, predication, latency, stat class, target fan-out) and
   per-block tables (register write slots, LSID store slots, code
   footprint) from [Block.t] on every fetch of every block instance —
   list walks and pattern matches repeated millions of times per run.
   A block image flattens all of it once per program into immutable
   int-indexed arrays, the software analogue of the TRIPS block header
   and pre-decoded instruction store feeding the issue window.

   Images are cached per program in a content-addressed table keyed by
   [Program.digest], so repeated runs of the same compiled artifact
   (the experiment sweep runs each program once per simulator, the
   fuzz oracle once per configuration) decode exactly once per
   process, across domains. *)

module Block = Edge_isa.Block
module Instr = Edge_isa.Instr
module Opcode = Edge_isa.Opcode
module Target = Edge_isa.Target
module Program = Edge_isa.Program

type stat_class = Smove | Snull | Stest | Splain

type inst = {
  op : Opcode.t;
  pred : Instr.predication;
  predicated : bool;
  arity : int;
  imm : int64;
  lsid : int;
  exit_idx : int;
  latency : int;
  targets : Target.t array;
  is_store : bool;
  pred_fanout : int;  (* static consumers fed through predicate slots *)
  cls : stat_class;
  mn : string;  (* mnemonic, for trace events *)
}

type t = {
  block : Block.t;
  index : int;  (* position in the program image *)
  name : string;
  name_hash : int;  (* Predictor.block_hash of the name *)
  instrs : inst array;
  n : int;
  reads : Block.read array;
  rtargets : Target.t array array;  (* per read slot *)
  write_regs : int array;  (* wslot -> architectural register *)
  n_writes : int;
  wslot_of_reg : int array;  (* reg -> lowest wslot writing it, or -1 *)
  store_lsids : int array;  (* declaration order, as in [Block.t] *)
  store_order : int array;  (* store slots sorted by ascending LSID *)
  n_stores : int;
  store_slot : int array;  (* lsid -> store slot, -1 if undeclared *)
  outputs : int;  (* writes + declared stores + 1 branch *)
  size_words : int;
  seeds : int array;  (* 0-operand unpredicated instruction ids *)
  pred_ids : int array;  (* predicated instruction ids, ascending *)
  exits : string array;
  exit_tgts : string option array;  (* per exit: [None] for halt *)
}

type program = {
  source : Program.t;
  blocks : t array;  (* program order *)
  by_name : (string, int) Hashtbl.t;
  entry : int;
  max_n : int;
  max_writes : int;
  max_stores : int;
}

let stat_class_of = function
  | Opcode.Un Opcode.Mov | Opcode.Mov4 -> Smove
  | Opcode.Null -> Snull
  | Opcode.Tst _ | Opcode.Tsti _ | Opcode.Ftst _ | Opcode.Sand -> Stest
  | _ -> Splain

let decode_inst (i : Instr.t) =
  let op = i.Instr.opcode in
  {
    op;
    pred = i.Instr.pred;
    predicated = Instr.is_predicated i;
    arity = Opcode.num_operands op;
    imm = i.Instr.imm;
    lsid = i.Instr.lsid;
    exit_idx = i.Instr.exit_idx;
    latency = Opcode.latency op;
    targets = Array.of_list i.Instr.targets;
    is_store = (match op with Opcode.St _ -> true | _ -> false);
    pred_fanout =
      List.fold_left
        (fun acc t ->
          match t with
          | Target.To_instr { slot = Target.Pred; _ } -> acc + 1
          | _ -> acc)
        0 i.Instr.targets;
    cls = stat_class_of op;
    mn = Opcode.mnemonic op;
  }

let of_block ?(index = 0) (b : Block.t) =
  let n = Array.length b.Block.instrs in
  let instrs = Array.map decode_inst b.Block.instrs in
  let n_writes = Array.length b.Block.writes in
  let write_regs =
    Array.map (fun (w : Block.write) -> w.Block.wreg) b.Block.writes
  in
  let wslot_of_reg = Array.make 128 (-1) in
  Array.iteri
    (fun wi (w : Block.write) ->
      let r = w.Block.wreg in
      if r >= 0 && r < 128 && wslot_of_reg.(r) < 0 then wslot_of_reg.(r) <- wi)
    b.Block.writes;
  let store_lsids = Array.of_list b.Block.store_lsids in
  let n_stores = Array.length store_lsids in
  let store_order =
    let idx = Array.init n_stores Fun.id in
    Array.sort (fun a b -> compare store_lsids.(a) store_lsids.(b)) idx;
    idx
  in
  let slot_cap =
    Array.fold_left (fun acc l -> max acc (l + 1)) Block.max_lsids store_lsids
  in
  let store_slot = Array.make slot_cap (-1) in
  Array.iteri
    (fun k l -> if l >= 0 && store_slot.(l) < 0 then store_slot.(l) <- k)
    store_lsids;
  let ids p =
    let acc = ref [] in
    for id = n - 1 downto 0 do
      if p instrs.(id) then acc := id :: !acc
    done;
    Array.of_list !acc
  in
  {
    block = b;
    index;
    name = b.Block.name;
    name_hash = Hashtbl.hash b.Block.name;
    instrs;
    n;
    reads = b.Block.reads;
    rtargets =
      Array.map (fun (r : Block.read) -> Array.of_list r.Block.rtargets)
        b.Block.reads;
    write_regs;
    n_writes;
    wslot_of_reg;
    store_lsids;
    store_order;
    n_stores;
    store_slot;
    outputs = n_writes + n_stores + 1;
    size_words = Block.size_in_words b;
    seeds = ids (fun i -> i.arity = 0 && not i.predicated);
    pred_ids = ids (fun i -> i.predicated);
    exits = b.Block.exits;
    exit_tgts =
      Array.map
        (fun e -> if String.equal e Block.halt_exit then None else Some e)
        b.Block.exits;
  }

(* [store_slot] answers in O(1) for in-range LSIDs; the scan fallback
   preserves the old behaviour (search the declaration list) for
   malformed negative LSIDs *)
let store_slot_of t lsid =
  if lsid >= 0 && lsid < Array.length t.store_slot then t.store_slot.(lsid)
  else
    let rec scan k =
      if k >= t.n_stores then -1
      else if t.store_lsids.(k) = lsid then k
      else scan (k + 1)
    in
    scan 0

let build (p : Program.t) =
  let blocks =
    Array.of_list
      (List.mapi (fun i (_, b) -> of_block ~index:i b) p.Program.blocks)
  in
  let by_name = Hashtbl.create (2 * max 1 (Array.length blocks)) in
  Array.iteri (fun i bi -> Hashtbl.replace by_name bi.name i) blocks;
  let entry =
    match Hashtbl.find_opt by_name p.Program.entry with Some i -> i | None -> -1
  in
  let maxf f = Array.fold_left (fun acc b -> max acc (f b)) 0 blocks in
  {
    source = p;
    blocks;
    by_name;
    entry;
    max_n = maxf (fun b -> b.n);
    max_writes = maxf (fun b -> b.n_writes);
    max_stores = maxf (fun b -> b.n_stores);
  }

let find_index p name = Hashtbl.find_opt p.by_name name

(* ---- content-addressed image cache ----

   Keyed by [Program.digest]; shared across domains (the experiment
   pool runs simulators concurrently), so lookups and inserts hold a
   mutex. Build cost is linear and tiny, so building under the lock is
   simpler than single-flight machinery. The table is bounded: a fuzz
   campaign pushes thousands of distinct programs through the
   simulators, and an unbounded table would grow without limit. *)

let cache : (string, program) Hashtbl.t = Hashtbl.create 64
let cache_mu = Mutex.create ()
let cache_cap = 256

let cached p =
  let key = Program.digest p in
  Mutex.lock cache_mu;
  let img =
    match Hashtbl.find_opt cache key with
    | Some img -> img
    | None ->
        let img = build p in
        if Hashtbl.length cache >= cache_cap then Hashtbl.reset cache;
        Hashtbl.replace cache key img;
        img
  in
  Mutex.unlock cache_mu;
  img

(* In front of the table, the last program this domain imaged, by
   physical equality: the fuzz oracle runs the functional, grid and
   in-order simulators on one compiled program in turn, and the digest
   (a marshal and an MD5 of the whole program) is most of a hit's cost.
   Sound because no code mutates a compiled program in place; tests
   that edit one edit a copy, which is another object. *)
let last : (Program.t * program) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let of_program p =
  match Domain.DLS.get last with
  | Some (q, img) when q == p -> img
  | _ ->
      let img = cached p in
      Domain.DLS.set last (Some (p, img));
      img
