(* The in-order single-issue EDGE backend.

   One centralized tile holds the whole block; instructions issue in
   block order, [issue_per_tile] per cycle, from an in-order window of
   [window_size] in-flight instructions; one block is in flight at a
   time. Architectural execution is delegated to [Functional.Engine] —
   the functional simulator's own per-block interpreter — and the
   timing pass below charges cycles for exactly the firings that engine
   performed. Results therefore cannot diverge from the functional
   simulator by construction; only the cycle counts are modeled here.

   The timing pass works off the static dataflow graph: a fired
   instruction becomes ready once every fired producer that targets one
   of its slots has completed (register reads and immediates are
   available at dispatch), and issues at the first cycle >= ready where
   (a) the issue width of the cycle is not exhausted, and (b) the
   firing [window_size] issues older has completed — the small window
   serializes the block far more than the grid's distributed
   reservation stations do. Ready instructions issue lowest block index
   first (block index order is not topological — predicate producers
   regularly sit after their consumers — so issue itself must be
   dataflow-ordered). Loads pay the D-cache latency for the address the
   engine actually computed; committed stores drain
   [commit_stores_per_cycle] per cycle after the last firing. The
   window already serializes a block's memory traffic, so
   [aggressive_loads] has no effect on this backend. *)

module Block = Edge_isa.Block
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
module Engine = Functional.Engine

(* bump when the timing model or [Stats] accounting changes: the
   persistent result cache keys on it *)
let revision = "inorder-sim-1"

type sim = {
  imgp : Bi.program;
  machine : Machine.t;
  eng : Engine.state;
  regs : int64 array;
  mem : Mem.t;
  stats : Stats.t;
  ms : Ms.t;
  producers : int array array option array;
      (* per block index, built lazily: per instr, static fan-in ids *)
  comp : int array;  (* capacity: completion cycle per instruction *)
  window : int array;  (* ring: completion cycles of issued instrs *)
  mutable clock : int;
  mutable seq : int;
}

let producers sim idx =
  match sim.producers.(idx) with
  | Some p -> p
  | None ->
      let img = sim.imgp.Bi.blocks.(idx) in
      let acc = Array.make img.Bi.n [] in
      Array.iteri
        (fun id (i : Bi.inst) ->
          Array.iter
            (function
              | Target.To_instr { id = d; _ } -> acc.(d) <- id :: acc.(d)
              | Target.To_write _ -> ())
            i.Bi.targets)
        img.Bi.instrs;
      let p = Array.map Array.of_list acc in
      sim.producers.(idx) <- Some p;
      p

(* ---------- per-block step ---------- *)

type block_result =
  | Next of string
  | Halted
  | Faulted of string
  | Malformed of string

let run_block sim idx =
  let m = sim.machine in
  let ms = sim.ms in
  let img = sim.imgp.Bi.blocks.(idx) in
  let producers = producers sim idx in
  let seq = sim.seq in
  sim.seq <- seq + 1;
  let block_start = sim.clock in
  (* serialized front end: every block pays fetch + I-cache penalty *)
  let pen = Ms.icache_penalty ms ~cycle:sim.clock img in
  if ms.Ms.otrace then
    Ms.emit ms (Ev.Fetch { cycle = sim.clock; block = img.Bi.name; penalty = pen });
  let start = sim.clock + m.Machine.fetch_cycles + pen in
  (* predict the next block before executing, as real hardware must *)
  let predicted =
    Predictor.predict_hashed ms.Ms.predictor ~block_hash:img.Bi.name_hash
  in
  (* architectural execution: the functional engine is authoritative *)
  let fstats = Stats.create () in
  Engine.prepare sim.eng img ~stats:fstats;
  match Engine.exec_block sim.eng ~regs:sim.regs ~mem:sim.mem with
  | Error msg -> Malformed msg
  | Ok outcome ->
      let df = Engine.frame sim.eng in
      fstats.Stats.instrs_committed <- fstats.Stats.instrs_executed;
      if ms.Ms.otrace then
        Ms.emit ms
          (Ev.Dispatch
             {
               cycle = start;
               block = img.Bi.name;
               seq;
               fid = 0;
               instrs = img.Bi.n;
             });
      if ms.Ms.oactive then Ms.mincr ms "sim.blocks_dispatched";
      (* Timing pass over the firings the engine performed. Block index
         order is not topological (predicate producers regularly sit
         after their consumers), so issue is dataflow-ordered: every
         cycle the ready instructions issue lowest-index-first,
         [issue_per_tile] of them, and the window ring stalls issue
         until the firing [window_size] issues back has completed.
         [comp.(id)] is the completion cycle, -1 while unscheduled;
         the dataflow graph is acyclic so the scan always progresses. *)
      let fired id = df.Df.fired.(id) in
      let n = img.Bi.n in
      let comp = sim.comp in
      let wsize = m.Machine.window_size in
      let issue_w = m.Machine.issue_per_tile in
      let total = ref 0 in
      for id = 0 to n - 1 do
        if fired id then begin
          comp.(id) <- -1;
          incr total
        end
      done;
      let cur = ref start in
      let issued = ref 0 in
      let scheduled = ref 0 in
      let exec_done = ref start in
      (* the completion gate of the next issue slot: the ring holds the
         last [wsize] completion times, read before being overwritten *)
      let gate () =
        if !issued >= wsize then sim.window.(!issued mod wsize) else min_int
      in
      let ready_at id =
        (* max completion over fired producers; unscheduled producer =
           not ready yet *)
        let t = ref start in
        let ok = ref true in
        Array.iter
          (fun p ->
            if fired p then
              if comp.(p) < 0 then ok := false
              else if comp.(p) > !t then t := comp.(p))
          producers.(id);
        if !ok then Some !t else None
      in
      let issue_one id =
        let i = img.Bi.instrs.(id) in
        if ms.Ms.otrace && ms.Ms.ofull then
          Ms.emit ms
            (Ev.Issue
               {
                 cycle = !cur;
                 block = img.Bi.name;
                 seq;
                 id;
                 op = i.Bi.mn;
                 tile = 0;
               });
        let lat =
          i.Bi.latency
          +
          match i.Bi.op with
          | Opcode.Ld _ when not df.Df.left.(id).Token.null ->
              Ms.dcache_latency ms ~cycle:!cur ~addr:(Df.address df id)
                ~write:false
          | _ -> 0
        in
        let c = !cur + lat in
        comp.(id) <- c;
        sim.window.(!issued mod wsize) <- c;
        incr issued;
        incr scheduled;
        if c > !exec_done then exec_done := c
      in
      while !scheduled < !total do
        (* issue everything possible at cycle [!cur]; rescan so a
           zero-latency producer can feed a lower-indexed consumer
           within the cycle *)
        let slots = ref issue_w in
        let progress = ref true in
        while !progress && !slots > 0 do
          progress := false;
          let id = ref 0 in
          while !id < n && !slots > 0 do
            (if fired !id && comp.(!id) < 0 && gate () <= !cur then
               match ready_at !id with
               | Some t when t <= !cur ->
                   issue_one !id;
                   decr slots;
                   progress := true
               | Some _ | None -> ());
            incr id
          done
        done;
        (* jump to the next cycle anything can issue: the earliest
           ready-and-ungated time of a schedulable instruction *)
        if !scheduled < !total then begin
          let next = ref max_int in
          for id = 0 to n - 1 do
            if fired id && comp.(id) < 0 then
              match ready_at id with
              | Some t ->
                  let t = max t (max (gate ()) (!cur + 1)) in
                  if t < !next then next := t
              | None -> ()
          done;
          cur := (if !next = max_int then !cur + 1 else !next)
        end
      done;
      (* store commit: the engine already wrote memory; charge the
         D-cache and the commit bandwidth for every fired store holding
         two non-null operands. That includes a store a later null
         token resolved as [Nulled] after both operands arrived, which
         commits nothing: the model has always charged it, and the
         committed cycle counts depend on it. *)
      sim.clock <- !exec_done;
      let committed_stores = ref 0 in
      Array.iteri
        (fun id (i : Bi.inst) ->
          if
            i.Bi.is_store && fired id && df.Df.lset.(id) && df.Df.rset.(id)
            && not (df.Df.left.(id).Token.null || df.Df.right.(id).Token.null)
          then begin
            ignore
              (Ms.dcache_latency ms ~cycle:sim.clock ~addr:(Df.address df id)
                 ~write:true);
            incr committed_stores
          end)
        img.Bi.instrs;
      let cps = m.Machine.commit_stores_per_cycle in
      let commit_done = !exec_done + ((!committed_stores + cps - 1) / cps) in
      (* branch resolution and predictor training *)
      let actual =
        match outcome.Functional.exit_taken with
        | None -> Block.halt_exit
        | Some t -> t
      in
      Predictor.update_hashed ms.Ms.predictor ~block_hash:img.Bi.name_hash
        ~exit_idx:df.Df.branch_exit ~target:actual;
      let mispredicted =
        match predicted with
        | Some p ->
            let correct = String.equal p actual in
            Predictor.record_outcome ms.Ms.predictor ~correct;
            not correct
        | None -> false
      in
      sim.stats.Stats.branch_predictions <-
        sim.stats.Stats.branch_predictions + 1;
      if mispredicted then
        sim.stats.Stats.branch_mispredicts <-
          sim.stats.Stats.branch_mispredicts + 1;
      if ms.Ms.oactive then begin
        Ms.mincr ms "sim.branch_resolutions";
        if mispredicted then Ms.mincr ms "sim.branch_mispredicts";
        if ms.Ms.otrace then
          Ms.emit ms
            (Ev.Branch
               {
                 cycle = !exec_done;
                 block = img.Bi.name;
                 seq;
                 target = actual;
                 mispredict = mispredicted;
               });
        Ms.mincr ms "sim.blocks_committed";
        Ms.mincr ms ~by:fstats.Stats.instrs_committed "sim.instrs_committed";
        Ms.mobserve ms "block.occupancy" (commit_done - block_start);
        Ms.mobserve ms "block.mispredicated" fstats.Stats.mispredicated_fetched;
        if ms.Ms.otrace then
          Ms.emit ms
            (Ev.Commit
               {
                 cycle = commit_done;
                 block = img.Bi.name;
                 seq;
                 instrs = fstats.Stats.instrs_committed;
                 nulls = 0;
                 orphans = 0;
                 occupancy = commit_done - block_start;
               })
      end;
      Stats.add sim.stats fstats;
      (* a wrong or absent prediction stalls the next fetch for the
         predictor latency; clocks always advance so pathological
         zero-latency machine descriptions still terminate *)
      let bubble =
        if mispredicted || predicted = None then m.Machine.predict_cycles else 0
      in
      sim.clock <- max (commit_done + bubble) (block_start + 1);
      match outcome.Functional.faulted with
      | Some f -> Faulted f
      | None -> ( match outcome.Functional.exit_taken with
          | None ->
              sim.stats.Stats.cycles <- commit_done;
              Halted
          | Some next -> Next next)

let run ?(machine = Machine.inorder_edge) ?(obs = Obs.null) program ~regs ~mem =
  let imgp = Bi.of_program program in
  let m = machine in
  let stats = Stats.create () in
  let sim =
    {
      imgp;
      machine;
      eng = Engine.make imgp;
      regs;
      mem;
      stats;
      ms = Ms.create machine ~stats ~obs;
      producers = Array.make (max 1 (Array.length imgp.Bi.blocks)) None;
      comp = Array.make (max 1 imgp.Bi.max_n) 0;
      window = Array.make (max 1 m.Machine.window_size) 0;
      clock = 0;
      seq = 0;
    }
  in
  let rec go name =
    if sim.clock >= m.Machine.max_cycles then
      Error (Printf.sprintf "watchdog: %d cycles" sim.clock)
    else
      match Bi.find_index imgp name with
      | None -> Error (Printf.sprintf "malformed: no block %s" name)
      | Some idx -> (
          match run_block sim idx with
          | Malformed msg -> Error ("malformed: " ^ msg)
          | Faulted f -> Error ("fault: " ^ f)
          | Halted -> Ok sim.stats
          | Next next -> go next)
  in
  go program.Program.entry
