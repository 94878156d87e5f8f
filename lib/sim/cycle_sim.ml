module Block = Edge_isa.Block
module Instr = Edge_isa.Instr
module Opcode = Edge_isa.Opcode
module Target = Edge_isa.Target
module Token = Edge_isa.Token
module Mem = Edge_isa.Mem
module Program = Edge_isa.Program
module Bi = Block_image
module Df = Dataflow
module Ms = Memsys
module Obs = Edge_obs.Obs
module Ev = Edge_obs.Event

type placement_fn = string -> int array

(* bump when simulated semantics or [Stats] accounting change: the
   persistent result cache keys on it *)
let revision = "cycle-sim-6"

exception Fault of string

(* per-frame observability state, allocated only when an [Obs] sink or
   metrics registry is attached — the null-obs fast path pays one [None]
   field per frame *)
type probe = {
  pred_arrivals : int array;
      (* predicate tokens delivered per instruction (matched or not):
         the paper's predicate-OR arrival counts; capacity array, live
         prefix is the block's instruction count *)
  mutable null_tokens : int;  (* null tokens delivered to this frame *)
}

(* per-block, per-run tables the dispatch/issue path would otherwise
   recompute on every fetch: the placement resolved once and operand
   network hop counts per target *)
type binfo = {
  img : Bi.t;
  placement : int array;
  res_hops : int array array;  (* per instr, per result target *)
  rd_hops : int array array;  (* per read slot, per read target *)
  mem_hops : int array;  (* per instr: hops to the memory interface *)
}

(* One block in flight: the dataflow core's frame plus what only the
   grid needs — issue-queue membership, cross-frame register
   subscriptions, speculation and in-flight accounting. The grid's
   arrays are capacity arrays recycled per frame slot; only the prefix
   covering the current block is live. *)
type frame = {
  fid : int;
  gen : int;
  seq : int;
  bi : binfo;
  df : Df.t;
  queued : bool array;  (* sitting in a ready queue *)
  res : Token.t array;  (* per instr: the result it sends, set as it fires *)
  rtok : Token.t array;  (* per read slot: the value it resolved to *)
  write_subs : (int * int * int) list array;
      (* per write slot: (fid, gen, read-slot-resume-key) of younger
         readers waiting; the key is the reader frame's read slot *)
  mutable predicted_next : string option;
  mutable prediction_checked : bool;
  mutable pending_events : int;
  mutable loads_done : (int * int64 * int) list;  (* lsid, addr, bytes *)
  dispatched_at : int;
  probe : probe option;
}

(* the grid-only arrays of one frame slot, always recycled *)
type slot = {
  s_queued : bool array;
  s_res : Token.t array;
  s_rtok : Token.t array;
  s_write_subs : (int * int * int) list array;
  s_pred_arrivals : int array;
}

type fetch_state =
  | Fidle  (** nothing to fetch (halt predicted/resolved) *)
  | Fwait of int  (** stalled on unresolved branch of frame seq *)
  | Fbusy of { idx : int; done_at : int }

(* per-tile ready queue: a FIFO ring of packed (gen, fid, id) ints —
   id in 7 bits (≤ 128 instructions), fid in 20 bits, gen above — so
   steady-state wakeups allocate nothing *)
type ready_q = { mutable rbuf : int array; mutable rhead : int; mutable rlen : int }

let pack_ready ~fid ~gen ~id = (gen lsl 27) lor (fid lsl 7) lor id
let ready_id x = x land 0x7f
let ready_fid x = (x lsr 7) land 0xfffff
let ready_gen x = x lsr 27

let rq_create () = { rbuf = Array.make 64 0; rhead = 0; rlen = 0 }

let rq_push q v =
  let cap = Array.length q.rbuf in
  if q.rlen = cap then begin
    let nbuf = Array.make (2 * cap) 0 in
    for i = 0 to q.rlen - 1 do
      nbuf.(i) <- q.rbuf.((q.rhead + i) land (cap - 1))
    done;
    q.rbuf <- nbuf;
    q.rhead <- 0
  end;
  q.rbuf.((q.rhead + q.rlen) land (Array.length q.rbuf - 1)) <- v;
  q.rlen <- q.rlen + 1

let rq_pop q =
  let v = q.rbuf.(q.rhead) in
  q.rhead <- (q.rhead + 1) land (Array.length q.rbuf - 1);
  q.rlen <- q.rlen - 1;
  v

(* An event packs into one int — kind in 3 bits, an instruction id or
   read slot in 8, a target index in 16 and the frame id above — and
   rides the wheel beside its frame's generation. A token never travels
   in the event: it sits in the frame's [res]/[rtok] slot, written once
   when the instruction fires or the read resolves. Stores and branches
   read their operands back from the frame, where they stay fixed once
   the instruction fires. *)
let ev_result = 0  (* deliver instruction [idx]'s result to its target [k] *)
let ev_read = 1  (* deliver read slot [idx]'s value to its target [k] *)
let ev_send = 2  (* fired instruction [idx]'s result reaches its sender *)
let ev_store = 3  (* store [idx] reaches the LSQ *)
let ev_branch = 4  (* branch or halt [idx] resolves *)

let tok0 = Token.of_int64 0L

type sim = {
  img : Bi.program;
  machine : Machine.t;
  placement : placement_fn;
  regs : int64 array;
  mem : Mem.t;
  stats : Stats.t;
  ms : Ms.t;
  binfos : binfo option array;  (* lazily built per block index *)
  dep_stride : int;  (* row width of the dependence predictor tables *)
  dep_same : int array;
      (* per (block index, load lsid): max conflicting same-frame store
         lsid, -1 for none — a store-set-style dependence predictor: a
         load waits only for the stores it was caught violating
         against *)
  dep_cross : bool array;  (* conflicts with older frames? *)
  arena : Df.t array;  (* core frames recycled per slot; [||] when off *)
  arena_debug : bool;  (* cross-check cleared prefixes vs fresh arrays *)
  slots : slot array;
  frames : frame option array;  (* by fid *)
  order : int array;
      (* ring of the live frames' fids in seq order: dispatch appends,
         commit pops the oldest, a flush truncates a youngest suffix *)
  mutable ohead : int;  (* ring index of the oldest live frame *)
  mutable olen : int;  (* live frames *)
  mutable next_seq : int;
  mutable next_gen : int;
  mutable fetch : fetch_state;
  mutable fetch_memo_name : string;  (* last start_fetch target ... *)
  mutable fetch_memo_idx : int;  (* ... and its block index *)
  events : Event_queue.t;
  mutable cycle : int;
  mutable unres_total : int;  (* unresolved stores across live frames *)
  mutable stored_total : int;  (* [Stored] resolutions across live frames *)
  mutable deferred_total : int;  (* deferred loads across live frames *)
  mutable loads_total : int;  (* [loads_done] entries across live frames *)
  ready : ready_q array;  (* per tile: packed (gen, fid, id) *)
  mutable ready_count : int;  (* total entries across [ready] queues *)
  mutable halted : bool;
}

(* in-flight work a frame abandons when squashed or early-terminated:
   results still on the operand network plus ready-queue entries *)
let frame_orphans f =
  let queued = ref 0 in
  for i = 0 to f.bi.img.Bi.n - 1 do
    if f.queued.(i) && not f.df.Df.fired.(i) then incr queued
  done;
  f.pending_events + !queued

(* schedule event [kind] on [idx]/[k] of frame [f] after [dt] cycles *)
let schedule sim f ~kind ~idx ~k dt =
  f.pending_events <- f.pending_events + 1;
  Event_queue.add sim.events
    ~cycle:(sim.cycle + Int.max 1 dt)
    (kind lor (idx lsl 3) lor (k lsl 11) lor (f.fid lsl 27))
    f.gen

(* the [i]th live frame in seq order, 0 the oldest *)
let live sim i =
  let j = sim.ohead + i and cap = Array.length sim.order in
  match sim.frames.(sim.order.(if j >= cap then j - cap else j)) with
  | Some f -> f
  | None -> assert false

(* ---------- per-block run tables ---------- *)

let default_placement_n ~num_tiles n = Array.init n (fun i -> i mod num_tiles)

let make_binfo sim idx =
  let machine = sim.machine in
  let num_tiles = Machine.num_tiles machine in
  let img = sim.img.Bi.blocks.(idx) in
  let n = img.Bi.n in
  let placement =
    let p = sim.placement img.Bi.name in
    (* a placement for another geometry (wrong length or out-of-range
       tile) falls back to round-robin over this machine's tiles *)
    if Array.length p = n && Array.for_all (fun t -> t >= 0 && t < num_tiles) p
    then p
    else default_placement_n ~num_tiles n
  in
  let res_hops =
    Array.mapi
      (fun id (i : Bi.inst) ->
        Array.map
          (function
            | Target.To_instr { id = d; _ } ->
                Machine.hops machine placement.(id) placement.(d)
            | Target.To_write _ -> Machine.reg_access_hops machine placement.(id))
          i.Bi.targets)
      img.Bi.instrs
  in
  let rd_hops =
    Array.map
      (fun tgts ->
        Array.map
          (function
            | Target.To_instr { id; _ } ->
                Machine.reg_access_hops machine placement.(id)
            | Target.To_write _ -> 1)
          tgts)
      img.Bi.rtargets
  in
  let mem_hops =
    Array.init n (fun id -> Machine.mem_access_hops machine placement.(id))
  in
  { img; placement; res_hops; rd_hops; mem_hops }

let binfo sim idx =
  match sim.binfos.(idx) with
  | Some b -> b
  | None ->
      let b = make_binfo sim idx in
      sim.binfos.(idx) <- Some b;
      b

(* ---------- cross-frame LSQ ---------- *)

(* all resolved stores strictly before (seq, lsid) in LSQ order, oldest
   first, across in-flight frames; allocates only for matching entries
   (usually none) *)
let stores_before sim ~seq ~lsid =
  if sim.stored_total = 0 then []
  else begin
    let acc = ref [] in
    for i = 0 to sim.olen - 1 do
      let f = live sim i in
      if f.seq <= seq then
        let img = f.bi.img in
        for k = 0 to img.Bi.n_stores - 1 do
          let l = img.Bi.store_lsids.(k) in
          if f.seq < seq || l < lsid then
            match f.df.Df.stores.(k) with
            | Df.Stored s -> acc := (f.seq, l, s) :: !acc
            | Df.Nulled | Df.Unresolved -> ()
        done
    done;
    List.map
      (fun (_, _, s) -> s)
      (List.sort
         (fun (s1, l1, _) (s2, l2, _) ->
           if s1 <> s2 then Int.compare s1 s2 else Int.compare l1 l2)
         !acc)
  end

let is_unresolved = function Df.Unresolved -> true | Df.Stored _ | Df.Nulled -> false

(* is any store before (seq, lsid) in LSQ order still unresolved? *)
let unresolved_before sim ~seq ~lsid =
  let rec frame i =
    i < sim.olen
    &&
    let f = live sim i in
    f.seq <= seq
    &&
    let img = f.bi.img in
    let rec scan k =
      k < img.Bi.n_stores
      && (((f.seq < seq || img.Bi.store_lsids.(k) < lsid)
           && is_unresolved f.df.Df.stores.(k))
         || scan (k + 1))
    in
    scan 0 || frame (i + 1)
  in
  sim.unres_total > 0 && frame 0

(* ---------- token delivery ---------- *)

(* the observation side of delivering [tok] to instruction [id]: the
   predicate-OR arrival count and the token trace event *)
let observe_token sim f id slot tok =
  let ms = sim.ms in
  (match (slot, f.probe) with
  | Target.Pred, Some p -> p.pred_arrivals.(id) <- p.pred_arrivals.(id) + 1
  | _ -> ());
  if ms.Ms.otrace && ms.Ms.ofull then
    let i = f.bi.img.Bi.instrs.(id) in
    let pred = slot = Target.Pred in
    Ms.emit ms
      (Ev.Token
         {
           cycle = sim.cycle;
           block = f.bi.img.Bi.name;
           seq = f.seq;
           dst = Format.asprintf "I%d.%a" id Target.pp_slot slot;
           op = i.Bi.mn;
           null = tok.Token.null;
           pred;
           matched = pred && Instr.predicate_matches i.Bi.pred tok;
         })

let rec deliver sim f target tok =
  let ms = sim.ms in
  (if ms.Ms.oactive && tok.Token.null then
     match f.probe with Some p -> p.null_tokens <- p.null_tokens + 1 | None -> ());
  match target with
  | Target.To_write w ->
      Df.deliver_write f.df w tok;
      if ms.Ms.otrace && ms.Ms.ofull then
        Ms.emit ms
          (Ev.Token
             {
               cycle = sim.cycle;
               block = f.bi.img.Bi.name;
               seq = f.seq;
               dst = "W" ^ string_of_int w;
               op = "-";
               null = tok.Token.null;
               pred = false;
               matched = false;
             });
      (* wake subscribed younger readers *)
      let subs = f.write_subs.(w) in
      f.write_subs.(w) <- [];
      List.iter
        (fun (rfid, rgen, rslot) ->
          match sim.frames.(rfid) with
          | Some rf when rf.gen = rgen -> resolve_read sim rf rslot
          | Some _ | None -> ())
        subs
  | Target.To_instr { id; slot } ->
      if ms.Ms.oactive then observe_token sim f id slot tok;
      let r = Df.deliver f.df id slot tok in
      if r >= 0 then enqueue sim f r
      else if r = Df.store_nulled then
        store_resolved sim f f.bi.img.Bi.instrs.(id).Bi.lsid Df.Nulled

and wake sim f id = if Df.ready f.df id then enqueue sim f id

(* put ready instruction [id] on its tile's issue queue, once *)
and enqueue sim f id =
  if not f.queued.(id) then begin
    let ms = sim.ms in
    if ms.Ms.otrace && ms.Ms.ofull then
      Ms.emit ms
        (Ev.Wakeup
           {
             cycle = sim.cycle;
             block = f.bi.img.Bi.name;
             seq = f.seq;
             id;
             op = f.bi.img.Bi.instrs.(id).Bi.mn;
           });
    f.queued.(id) <- true;
    rq_push sim.ready.(f.bi.placement.(id)) (pack_ready ~fid:f.fid ~gen:f.gen ~id);
    sim.ready_count <- sim.ready_count + 1
  end

(* the LSQ's side of a store the core just resolved: global counters,
   the violation check against younger executed loads, and the retry
   of loads deferred on it *)
and store_resolved sim f lsid r =
  sim.unres_total <- sim.unres_total - 1;
  (match r with
  | Df.Stored s -> (
      sim.stored_total <- sim.stored_total + 1;
      if sim.loads_total > 0 then
        let bytes = Mem.width_bytes s.Df.width in
        let overlap (laddr, lbytes) =
          let a1 = s.Df.addr and a2 = Int64.add s.Df.addr (Int64.of_int bytes) in
          let b1 = laddr and b2 = Int64.add laddr (Int64.of_int lbytes) in
          not (a2 <= b1 || b2 <= a1)
        in
        let rec violator i =
          if i = sim.olen then None
          else
            let fr = live sim i in
            if
              List.exists
                (fun (llsid, laddr, lbytes) ->
                  (fr.seq > f.seq || (fr.seq = f.seq && llsid > lsid))
                  && overlap (laddr, lbytes))
                fr.loads_done
            then Some fr
            else violator (i + 1)
        in
        match violator 0 with
        | Some fv ->
            sim.stats.Stats.lsq_violations <- sim.stats.Stats.lsq_violations + 1;
            (* train the dependence predictor on exactly the violating
               loads: record which store they must wait for *)
            let row = fv.bi.img.Bi.index * sim.dep_stride in
            List.iter
              (fun (llsid, laddr, lbytes) ->
                if
                  (fv.seq > f.seq || (fv.seq = f.seq && llsid > lsid))
                  && overlap (laddr, lbytes)
                  && llsid >= 0 && llsid < sim.dep_stride
                then
                  if fv.seq = f.seq then
                    sim.dep_same.(row + llsid) <-
                      Int.max lsid sim.dep_same.(row + llsid)
                  else sim.dep_cross.(row + llsid) <- true)
              fv.loads_done;
            flush_from sim fv.seq ~reason:"violation"
              ~refetch:(Some fv.bi.img.Bi.name)
        | None -> ())
  | Df.Nulled | Df.Unresolved -> ());
  (* deferred loads may now proceed *)
  retry_deferred sim

and retry_deferred sim =
  if sim.deferred_total > 0 then
    for i = 0 to sim.olen - 1 do
      let f = live sim i in
      let ls = f.df.Df.deferred in
      f.df.Df.deferred <- [];
      sim.deferred_total <- sim.deferred_total - List.length ls;
      List.iter
        (fun id ->
          if not f.df.Df.fired.(id) then begin
            f.queued.(id) <- false;
            wake sim f id
          end)
        ls
    done

(* retire frame [f] from the frame table, folding its statistics and
   its share of the LSQ counters out of the machine; the caller drops it
   from the ring *)
and release sim f =
  let df = f.df in
  Stats.add sim.stats df.Df.stats;
  sim.unres_total <- sim.unres_total - df.Df.unres;
  sim.stored_total <- sim.stored_total - df.Df.nstored;
  sim.deferred_total <- sim.deferred_total - List.length df.Df.deferred;
  sim.loads_total <- sim.loads_total - List.length f.loads_done;
  sim.frames.(f.fid) <- None

and observe_pred_arrivals sim f =
  match f.probe with
  | Some p ->
      for i = 0 to f.bi.img.Bi.n - 1 do
        if p.pred_arrivals.(i) > 0 then
          Ms.mobserve sim.ms "block.pred_or_arrivals" p.pred_arrivals.(i)
      done
  | None -> ()

and flush_from sim seq ~reason ~refetch =
  let ms = sim.ms in
  (* the frames at or after [seq] are the ring's youngest suffix *)
  let keep = ref sim.olen in
  while !keep > 0 && (live sim (!keep - 1)).seq >= seq do
    decr keep
  done;
  for i = !keep to sim.olen - 1 do
    let f = live sim i in
    if ms.Ms.oactive then begin
      let orphans = frame_orphans f in
      Ms.mincr ms "sim.blocks_squashed";
      Ms.mincr ms ~by:f.df.Df.stats.Stats.instrs_executed "sim.instrs_squashed";
      Ms.mobserve ms "block.squash_orphans" orphans;
      observe_pred_arrivals sim f;
      if ms.Ms.otrace then
        Ms.emit ms
          (Ev.Squash
             {
               cycle = sim.cycle;
               block = f.bi.img.Bi.name;
               seq = f.seq;
               reason;
               orphans;
             })
    end;
    sim.stats.Stats.blocks_flushed <- sim.stats.Stats.blocks_flushed + 1;
    release sim f
  done;
  sim.olen <- !keep;
  (* older frames may hold subscriptions from flushed readers: they are
     dropped lazily by their generation; any in-flight fetch was ordered
     after the flushed frames *)
  match refetch with
  | Some name ->
      start_fetch sim name ~extra:(sim.machine.Machine.predict_cycles)
  | None -> sim.fetch <- Fidle

and start_fetch sim name ~extra =
  if String.equal name Block.halt_exit then sim.fetch <- Fidle
  else
    (* block names are interned: predictions and exits hand back the
       image's own string objects, so a physical-equality memo skips the
       hashtable on the (very common) repeated target *)
    let idx =
      if name == sim.fetch_memo_name then sim.fetch_memo_idx
      else
        match Bi.find_index sim.img name with
        | None -> Df.fail "no block %s" name
        | Some idx ->
            sim.fetch_memo_name <- name;
            sim.fetch_memo_idx <- idx;
            idx
    in
    let bi = binfo sim idx in
    let pen = Ms.icache_penalty sim.ms ~cycle:sim.cycle bi.img in
    if sim.ms.Ms.otrace then
      Ms.emit sim.ms (Ev.Fetch { cycle = sim.cycle; block = name; penalty = pen });
    sim.fetch <-
      Fbusy
        { idx; done_at = sim.cycle + extra + sim.machine.Machine.fetch_cycles + pen }

(* resolve register read slot [rslot] of frame [f]: find the value in
   older in-flight frames or the architectural register file; subscribe
   if the producing write has not arrived yet *)
and resolve_read sim f rslot =
  let r = f.bi.img.Bi.reads.(rslot) in
  let reg = r.Block.reg in
  (* walk the ring backward from the youngest frame older than [f] *)
  let rec search i =
    if i < 0 then
      (* architectural register file *)
      send_read_value sim f rslot (Token.of_int64 sim.regs.(reg))
    else
      let o = live sim i in
      let wslot =
        if o.seq >= f.seq then -1
        else if reg >= 0 && reg < 128 then o.bi.img.Bi.wslot_of_reg.(reg)
        else -1
      in
      if wslot < 0 then search (i - 1)
      else if not o.df.Df.wset.(wslot) then
        o.write_subs.(wslot) <- (f.fid, f.gen, rslot) :: o.write_subs.(wslot)
      else
        let tok = o.df.Df.writes.(wslot) in
        if tok.Token.null then search (i - 1) else send_read_value sim f rslot tok
  in
  search (sim.olen - 1)

and send_read_value sim f rslot tok =
  let r = f.bi.img.Bi.reads.(rslot) in
  if sim.ms.Ms.otrace && sim.ms.Ms.ofull then
    Ms.emit sim.ms
      (Ev.Read
         {
           cycle = sim.cycle;
           block = f.bi.img.Bi.name;
           seq = f.seq;
           rslot;
           reg = r.Block.reg;
         });
  f.rtok.(rslot) <- tok;
  let hops = f.bi.rd_hops.(rslot) in
  for k = 0 to Array.length hops - 1 do
    schedule sim f ~kind:ev_read ~idx:rslot ~k hops.(k)
  done

(* send the result of instruction [id] to its targets with network
   delays *)
let send_result sim f id =
  let hops = f.bi.res_hops.(id) in
  for k = 0 to Array.length hops - 1 do
    let h = hops.(k) in
    sim.stats.Stats.operand_hops <- sim.stats.Stats.operand_hops + h;
    if sim.ms.Ms.oactive then Ms.mincr sim.ms ~by:h "sim.operand_hops";
    schedule sim f ~kind:ev_result ~idx:id ~k h
  done

(* branch resolution: prediction check, flushes, fetch redirect *)
let resolve_branch sim f id =
  let df = f.df in
  Df.resolve_branch df id;
  let actual =
    match df.Df.branch_tgt with None -> Block.halt_exit | Some t -> t
  in
  (* train at resolution so the BTB warms before commit; TRIPS predictors
     are speculatively updated too *)
  let predictor = sim.ms.Ms.predictor in
  Predictor.update_hashed predictor ~block_hash:f.bi.img.Bi.name_hash
    ~exit_idx:df.Df.branch_exit ~target:actual;
  let mispredicted = ref false in
  if not f.prediction_checked then begin
    f.prediction_checked <- true;
    match f.predicted_next with
    | Some predicted ->
        Predictor.record_outcome predictor
          ~correct:(String.equal predicted actual);
        if not (String.equal predicted actual) then begin
          mispredicted := true;
          sim.stats.Stats.branch_mispredicts <-
            sim.stats.Stats.branch_mispredicts + 1;
          flush_from sim (f.seq + 1) ~reason:"mispredict" ~refetch:(Some actual)
        end
    | None -> (
        (* fetch was stalled on us (or we are the youngest) *)
        match sim.fetch with
        | Fwait s when s = f.seq ->
            f.predicted_next <- Some actual;
            start_fetch sim actual ~extra:sim.machine.Machine.predict_cycles
        | Fwait _ | Fidle | Fbusy _ -> f.predicted_next <- Some actual)
  end;
  let ms = sim.ms in
  if ms.Ms.oactive then begin
    Ms.mincr ms "sim.branch_resolutions";
    if !mispredicted then Ms.mincr ms "sim.branch_mispredicts";
    if ms.Ms.otrace then
      Ms.emit ms
        (Ev.Branch
           {
             cycle = sim.cycle;
             block = f.bi.img.Bi.name;
             seq = f.seq;
             target = actual;
             mispredict = !mispredicted;
           })
  end;
  sim.stats.Stats.branch_predictions <- sim.stats.Stats.branch_predictions + 1

(* execute one event; events for squashed frames (generation mismatch)
   are dropped *)
let exec_ev sim ev gen =
  match sim.frames.(ev lsr 27) with
  | Some f when f.gen = gen -> (
      f.pending_events <- f.pending_events - 1;
      let idx = (ev lsr 3) land 0xff and k = (ev lsr 11) land 0xffff in
      match ev land 7 with
      | 0 -> deliver sim f f.bi.img.Bi.instrs.(idx).Bi.targets.(k) f.res.(idx)
      | 1 -> deliver sim f f.bi.img.Bi.rtargets.(idx).(k) f.rtok.(idx)
      | 2 -> send_result sim f idx
      | 3 ->
          let lsid = f.bi.img.Bi.instrs.(idx).Bi.lsid in
          let r = Df.store_result f.df idx in
          Df.resolve_store f.df lsid r;
          store_resolved sim f lsid r
      | _ -> resolve_branch sim f idx)
  | Some _ | None -> ()

(* a real firing (not a deferred-load retry): the issue trace hook,
   then the core marks and counts it *)
let issue sim f id (i : Bi.inst) =
  if sim.ms.Ms.otrace && sim.ms.Ms.ofull then
    Ms.emit sim.ms
      (Ev.Issue
         {
           cycle = sim.cycle;
           block = f.bi.img.Bi.name;
           seq = f.seq;
           id;
           op = i.Bi.mn;
           tile = f.bi.placement.(id);
         });
  Df.fire f.df id

(* fire one instruction instance *)
let fire sim f id =
  let df = f.df in
  let i = f.bi.img.Bi.instrs.(id) in
  f.queued.(id) <- false;
  match i.Bi.op with
  | Opcode.Ld width ->
      let lsid = i.Bi.lsid in
      let must_wait =
        if not sim.machine.Machine.aggressive_loads then
          unresolved_before sim ~seq:f.seq ~lsid
        else if lsid < 0 || lsid >= sim.dep_stride then false
        else begin
          let k = (f.bi.img.Bi.index * sim.dep_stride) + lsid in
          let same = sim.dep_same.(k) and cross = sim.dep_cross.(k) in
          let same_wait =
            same >= 0
            &&
            let img = f.bi.img in
            let rec scan j =
              j < img.Bi.n_stores
              && ((img.Bi.store_lsids.(j) < lsid
                   && img.Bi.store_lsids.(j) <= same
                   && is_unresolved df.Df.stores.(j))
                 || scan (j + 1))
            in
            scan 0
          in
          let cross_wait =
            cross
            && Array.exists
                 (function
                   | Some fr -> fr.seq < f.seq && fr.df.Df.unres > 0
                   | None -> false)
                 sim.frames
          in
          same_wait || cross_wait
        end
      in
      if must_wait then begin
        df.Df.deferred <- id :: df.Df.deferred;
        sim.deferred_total <- sim.deferred_total + 1
      end
      else begin
        issue sim f id i;
        let base = df.Df.left.(id) in
        let addr = Df.address df id in
        let forwardable = not (base.Token.exc || base.Token.null) in
        let tok =
          Df.load df id ~mem:sim.mem
            (if forwardable then stores_before sim ~seq:f.seq ~lsid else [])
        in
        if forwardable then begin
          f.loads_done <- (lsid, addr, Mem.width_bytes width) :: f.loads_done;
          sim.loads_total <- sim.loads_total + 1
        end;
        let lat =
          i.Bi.latency + (2 * f.bi.mem_hops.(id))
          + Ms.dcache_latency sim.ms ~cycle:sim.cycle ~addr ~write:false
        in
        f.res.(id) <- tok;
        schedule sim f ~kind:ev_send ~idx:id ~k:0 lat
      end
  | Opcode.St _ ->
      issue sim f id i;
      schedule sim f ~kind:ev_store ~idx:id ~k:0 (i.Bi.latency + f.bi.mem_hops.(id))
  | Opcode.Bro ->
      issue sim f id i;
      schedule sim f ~kind:ev_branch ~idx:id ~k:0 i.Bi.latency
  | Opcode.Halt ->
      issue sim f id i;
      schedule sim f ~kind:ev_branch ~idx:id ~k:0 1
  | _ ->
      issue sim f id i;
      f.res.(id) <- Df.result df id;
      schedule sim f ~kind:ev_send ~idx:id ~k:0 i.Bi.latency

(* the arena-debug invariant: a recycled prefix must be
   indistinguishable from freshly allocated arrays — catches a clear
   that goes missing or is mis-bounded when frame state evolves *)
let check_cleared f =
  let img = f.bi.img in
  let ok = ref (Df.cleared f.df) in
  for i = 0 to img.Bi.n - 1 do
    if f.queued.(i) then ok := false
  done;
  for w = 0 to max 1 img.Bi.n_writes - 1 do
    if f.write_subs.(w) <> [] then ok := false
  done;
  (match f.probe with
  | Some p ->
      for i = 0 to max 1 img.Bi.n - 1 do
        if p.pred_arrivals.(i) <> 0 then ok := false
      done
  | None -> ());
  if not !ok then Df.fail "%s: arena frame not cleared" img.Bi.name

(* dispatch a fetched block into a free frame slot *)
let dispatch sim idx =
  let fid = ref 0 in
  while Option.is_some sim.frames.(!fid) do
    incr fid
  done;
  let fid = !fid in
  let bi = binfo sim idx in
  let img = bi.img in
  let n = img.Bi.n in
  let ms = sim.ms in
  let df = match sim.arena with [||] -> Df.for_block img | a -> a.(fid) in
  Df.prepare df img ~stats:(Stats.create ());
  let s = sim.slots.(fid) in
  Array.fill s.s_queued 0 n false;
  Array.fill s.s_write_subs 0 (max 1 img.Bi.n_writes) [];
  if ms.Ms.oactive then Array.fill s.s_pred_arrivals 0 (max 1 n) 0;
  let f =
    {
      fid;
      gen = sim.next_gen;
      seq = sim.next_seq;
      bi;
      df;
      queued = s.s_queued;
      res = s.s_res;
      rtok = s.s_rtok;
      write_subs = s.s_write_subs;
      predicted_next = None;
      prediction_checked = false;
      pending_events = 0;
      loads_done = [];
      dispatched_at = sim.cycle;
      probe =
        (if ms.Ms.oactive then
           Some { pred_arrivals = s.s_pred_arrivals; null_tokens = 0 }
         else None);
    }
  in
  if sim.arena_debug then check_cleared f;
  sim.next_seq <- sim.next_seq + 1;
  sim.next_gen <- sim.next_gen + 1;
  sim.unres_total <- sim.unres_total + img.Bi.n_stores;
  sim.frames.(fid) <- Some f;
  (let j = sim.ohead + sim.olen and cap = Array.length sim.order in
   sim.order.(if j >= cap then j - cap else j) <- fid);
  sim.olen <- sim.olen + 1;
  if ms.Ms.otrace then
    Ms.emit ms
      (Ev.Dispatch
         { cycle = sim.cycle; block = img.Bi.name; seq = f.seq; fid; instrs = n });
  if ms.Ms.oactive then begin
    Ms.mincr ms "sim.blocks_dispatched";
    (* static predicate fanout: how many consumers each test instruction
       feeds through predicate slots (paper §3.3, predicate-OR trees) *)
    Array.iter
      (fun (i : Bi.inst) ->
        if i.Bi.pred_fanout > 0 then
          Ms.mobserve ms "block.pred_fanout" i.Bi.pred_fanout)
      img.Bi.instrs
  end;
  (* seed register reads *)
  for rslot = 0 to Array.length img.Bi.reads - 1 do
    resolve_read sim f rslot
  done;
  (* seed 0-operand unpredicated instructions *)
  Array.iter (fun id -> wake sim f id) img.Bi.seeds;
  (* chain the next fetch off a prediction *)
  match Predictor.predict_hashed ms.Ms.predictor ~block_hash:img.Bi.name_hash with
  | Some predicted when sim.machine.Machine.max_inflight > 1 ->
      f.predicted_next <- Some predicted;
      start_fetch sim predicted ~extra:sim.machine.Machine.predict_cycles
  | Some _ | None -> sim.fetch <- Fwait f.seq

(* commit the oldest frame if it is finished *)
let try_commit sim =
  match sim.olen with
  | 0 -> ()
  | _ ->
      let f = live sim 0 in
      let df = f.df in
      let drained =
        sim.machine.Machine.early_termination || f.pending_events = 0
      in
      if Df.complete df && drained then begin
        let img = f.bi.img in
        let ms = sim.ms in
        (match Df.commit df ~regs:sim.regs ~mem:sim.mem with
        | Some fault -> raise (Fault fault)
        | None -> ());
        (* the committed stores drain through the D-cache in LSID order *)
        Array.iter
          (fun slot ->
            match df.Df.stores.(slot) with
            | Df.Stored { addr; _ } ->
                ignore (Ms.dcache_latency ms ~cycle:sim.cycle ~addr ~write:true)
            | Df.Nulled | Df.Unresolved -> ())
          img.Bi.store_order;
        let target =
          match df.Df.branch_tgt with None -> Block.halt_exit | Some t -> t
        in
        Predictor.update_hashed ms.Ms.predictor ~block_hash:img.Bi.name_hash
          ~exit_idx:df.Df.branch_exit ~target;
        let fstats = df.Df.stats in
        fstats.Stats.instrs_committed <- fstats.Stats.instrs_executed;
        if ms.Ms.oactive then begin
          let orphans = frame_orphans f in
          let nulls =
            match f.probe with Some p -> p.null_tokens | None -> 0
          in
          let occupancy = sim.cycle - f.dispatched_at in
          Ms.mincr ms "sim.blocks_committed";
          Ms.mincr ms ~by:fstats.Stats.instrs_committed "sim.instrs_committed";
          Ms.mobserve ms "block.occupancy" occupancy;
          Ms.mobserve ms "block.null_tokens" nulls;
          Ms.mobserve ms "block.mispredicated"
            fstats.Stats.mispredicated_fetched;
          (* work left in flight when early termination let the block
             commit before its dataflow drained (paper §4.3) *)
          if orphans > 0 then Ms.mobserve ms "block.early_orphans" orphans;
          observe_pred_arrivals sim f;
          if ms.Ms.otrace then
            Ms.emit ms
              (Ev.Commit
                 {
                   cycle = sim.cycle;
                   block = img.Bi.name;
                   seq = f.seq;
                   instrs = fstats.Stats.instrs_committed;
                   nulls;
                   orphans;
                   occupancy;
                 })
        end;
        release sim f;
        sim.ohead <- (sim.ohead + 1) mod Array.length sim.order;
        sim.olen <- sim.olen - 1;
        if Option.is_none df.Df.branch_tgt then begin
          sim.halted <- true;
          sim.stats.Stats.cycles <- sim.cycle
        end
      end

let step_issue sim =
  if sim.ready_count > 0 then
    for t = 0 to Array.length sim.ready - 1 do
      let q = sim.ready.(t) in
      if q.rlen > 0 then begin
        let budget = ref sim.machine.Machine.issue_per_tile in
        while !budget > 0 && q.rlen > 0 do
          let e = rq_pop q in
          let fid = ready_fid e and gen = ready_gen e and id = ready_id e in
          sim.ready_count <- sim.ready_count - 1;
          match sim.frames.(fid) with
          | Some f when f.gen = gen && f.queued.(id) && not f.df.Df.fired.(id) ->
              decr budget;
              fire sim f id
          | Some _ | None -> ()
        done
      end
    done

let step_fetch sim =
  match sim.fetch with
  | Fbusy b when sim.cycle >= b.done_at ->
      if sim.olen < sim.machine.Machine.max_inflight then begin
        sim.fetch <- Fidle;
        dispatch sim b.idx
      end
  | Fbusy _ | Fwait _ | Fidle -> ()

let next_interesting_cycle sim =
  (* scheduled events are strictly in the future, so when any tile has
     ready work the very next cycle is always the earliest candidate —
     skip the event-queue scan entirely *)
  if sim.ready_count > 0 then sim.cycle + 1
  else begin
    let best = Event_queue.next_due sim.events in
    let best =
      match sim.fetch with
      | Fbusy b -> Int.min best (Int.max (sim.cycle + 1) b.done_at)
      | Fwait _ | Fidle -> best
    in
    if best = max_int then -1 else best
  end

let make_slot (p : Bi.program) =
  let n = max 1 p.Bi.max_n and nw = max 1 p.Bi.max_writes in
  let nr =
    Array.fold_left (fun m (b : Bi.t) -> max m (Array.length b.Bi.reads)) 1 p.Bi.blocks
  in
  {
    s_queued = Array.make n false;
    s_res = Array.make n tok0;
    s_rtok = Array.make nr tok0;
    s_write_subs = Array.make nw [];
    s_pred_arrivals = Array.make n 0;
  }

let run ?(machine = Machine.default) ?placement ?(obs = Obs.null)
    ?(arena = true) program ~regs ~mem =
  let img = Bi.of_program program in
  let placement =
    match placement with
    | Some p -> p
    | None ->
        let num_tiles = Machine.num_tiles machine in
        fun name ->
          (match Bi.find_index img name with
          | Some i -> default_placement_n ~num_tiles img.Bi.blocks.(i).Bi.n
          | None -> [||])
  in
  let n_blocks = Array.length img.Bi.blocks in
  let dep_stride =
    let m = ref 0 in
    Array.iter
      (fun (b : Bi.t) ->
        Array.iter (fun (i : Bi.inst) -> m := Int.max !m (i.Bi.lsid + 1)) b.Bi.instrs)
      img.Bi.blocks;
    max 1 !m
  in
  let stats = Stats.create () in
  let inflight = machine.Machine.max_inflight in
  let sim =
    {
      img;
      machine;
      placement;
      regs;
      mem;
      stats;
      ms = Ms.create machine ~stats ~obs;
      binfos = Array.make (max 1 n_blocks) None;
      dep_stride;
      dep_same = Array.make (max 1 (n_blocks * dep_stride)) (-1);
      dep_cross = Array.make (max 1 (n_blocks * dep_stride)) false;
      arena =
        (if arena then Array.init inflight (fun _ -> Df.for_program img) else [||]);
      arena_debug = Sys.getenv_opt "DFP_ARENA_DEBUG" <> None;
      slots = Array.init inflight (fun _ -> make_slot img);
      frames = Array.make inflight None;
      order = Array.make inflight 0;
      ohead = 0;
      olen = 0;
      next_seq = 0;
      next_gen = 0;
      fetch = Fidle;
      fetch_memo_name = "";
      fetch_memo_idx = -1;
      events = Event_queue.create ();
      cycle = 0;
      unres_total = 0;
      stored_total = 0;
      deferred_total = 0;
      loads_total = 0;
      ready = Array.init (Machine.num_tiles machine) (fun _ -> rq_create ());
      ready_count = 0;
      halted = false;
    }
  in
  match
    start_fetch sim program.Program.entry ~extra:0;
    let exec = exec_ev sim in
    while (not sim.halted) && sim.cycle < machine.Machine.max_cycles do
      (* events due now, in scheduling order *)
      Event_queue.drain sim.events ~cycle:sim.cycle exec;
      step_issue sim;
      step_fetch sim;
      try_commit sim;
      if not sim.halted then begin
        match next_interesting_cycle sim with
        | c when c >= 0 -> sim.cycle <- Int.max (sim.cycle + 1) c
        | _ -> (
            if
              sim.olen = 0
              && (match sim.fetch with Fidle -> true | Fwait _ | Fbusy _ -> false)
            then Df.fail "machine idle before halt"
            else
              let rec stuck i =
                if i = sim.olen || not (Event_queue.is_empty sim.events) then None
                else if Df.complete (live sim i).df then stuck (i + 1)
                else Some (live sim i)
              in
              match stuck 0 with
              | Some f -> Df.deadlock f.df
              | None -> sim.cycle <- sim.cycle + 1)
      end
    done;
    if not sim.halted then Error (Printf.sprintf "watchdog: %d cycles" sim.cycle)
    else Ok sim.stats
  with
  | r -> r
  | exception Df.Malformed m -> Error ("malformed: " ^ m)
  | exception Fault m -> Error ("fault: " ^ m)
