(* The in-order EDGE backend.

   One centralized tile holds the whole block; instructions issue
   [issue_per_tile] per cycle from an in-order window of [window_size]
   in-flight instructions; one block is in flight at a time.
   Architectural execution is delegated to [Functional.exec_block] —
   the functional simulator's own per-block interpreter, run on a
   [Dataflow] frame — and the timing pass below charges cycles for
   exactly the firings it performed. Results therefore cannot diverge
   from the functional simulator by construction; only the cycle
   counts are modeled here.

   The timing pass is a list scheduler over the static dataflow graph:
   a fired instruction becomes ready once every fired producer that
   targets one of its slots has completed (register reads and
   immediates are available at dispatch), and issues at the first
   cycle >= ready where (a) the issue width of the cycle is not
   exhausted, and (b) the firing [window_size] issues older has
   completed — the small window serializes the block far more than the
   grid's distributed reservation stations do. Ready instructions issue
   lowest block index first. Block index order is not topological
   (predicate producers regularly sit after their consumers), so the
   scheduler is incremental: each fired instruction counts its fired
   producers once; an issue raises its consumers' ready cycles and
   counts them down; at zero a consumer waits in a heap keyed by ready
   cycle, and once that cycle is reached, in a heap keyed by block
   index that issue draws from. Every opcode latency is >= 1, so no
   issue readies an instruction within its own cycle, and the
   scheduler jumps straight to the next cycle anything can issue.
   Loads pay the D-cache latency for the address the engine actually
   computed, probed in issue order; committed stores drain
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

(* bump when the timing model or [Stats] accounting changes: the
   persistent result cache keys on it *)
let revision = "inorder-sim-1"

(* A fixed-capacity binary min-heap of ints under int keys. *)
module Heap = struct
  type t = { keys : int array; vals : int array; mutable size : int }

  let create cap = { keys = Array.make cap 0; vals = Array.make cap 0; size = 0 }
  let min_key h = h.keys.(0)

  let push h ~key v =
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && h.keys.((!i - 1) / 2) > key do
      let p = (!i - 1) / 2 in
      h.keys.(!i) <- h.keys.(p);
      h.vals.(!i) <- h.vals.(p);
      i := p
    done;
    h.keys.(!i) <- key;
    h.vals.(!i) <- v

  let pop h =
    let top = h.vals.(0) in
    let n = h.size - 1 in
    h.size <- n;
    let key = h.keys.(n) and v = h.vals.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < n && h.keys.(l + 1) < h.keys.(l) then l + 1 else l in
      if c < n && h.keys.(c) < key then begin
        h.keys.(!i) <- h.keys.(c);
        h.vals.(!i) <- h.vals.(c);
        i := c
      end
      else sifting := false
    done;
    h.keys.(!i) <- key;
    h.vals.(!i) <- v;
    top
end

type sim = {
  imgp : Bi.program;
  machine : Machine.t;
  df : Df.t;  (* the core frame every block executes in *)
  regs : int64 array;
  mem : Mem.t;
  stats : Stats.t;
  ms : Ms.t;
  waiting : int array;  (* per instr: fired producers not yet issued *)
  ready : int array;  (* per instr: block start or latest producer completion *)
  by_cycle : Heap.t;  (* all producers issued: ids keyed by ready cycle *)
  by_index : Heap.t;  (* ready by the current cycle: ids keyed by id *)
  window : int array;  (* ring: completion cycles of the latest issues *)
  mutable clock : int;
  mutable seq : int;
}

(* the window gate of issue number [issued] in a block: the completion
   cycle of the issue [window_size] back, read before it is
   overwritten. [issued] restarts every block and stays below the
   largest block, so the ring is sized by that bound, not the machine's
   window: a longer ring would never be read. *)
let gate window issued =
  let w = Array.length window in
  if issued >= w then window.(issued mod w) else min_int

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
  let df = sim.df in
  Df.prepare df img ~stats:fstats;
  match Functional.exec_block df ~regs:sim.regs ~mem:sim.mem with
  | Error msg -> Malformed msg
  | Ok outcome ->
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
      (* Timing pass: the incremental list scheduler of the header.
         Each visited cycle first moves the due entries of [by_cycle]
         into [by_index], then issues lowest index first while issue
         slots remain and the window gate allows, so D-cache probes run
         in cycle order and in index order within a cycle. A static
         cycle among fired instructions (an absorbed predicate can
         close one) never counts down: its members go uncharged and the
         pass still ends. *)
      let fired = df.Df.fired in
      let n = img.Bi.n in
      let instrs = img.Bi.instrs in
      let waiting = sim.waiting and ready = sim.ready in
      let by_cycle = sim.by_cycle and by_index = sim.by_index in
      let window = sim.window in
      Array.fill waiting 0 n 0;
      Array.fill ready 0 n start;
      for id = 0 to n - 1 do
        if fired.(id) then begin
          let targets = instrs.(id).Bi.targets in
          for k = 0 to Array.length targets - 1 do
            match targets.(k) with
            | Target.To_instr { id = d; _ } when fired.(d) ->
                waiting.(d) <- waiting.(d) + 1
            | Target.To_instr _ | Target.To_write _ -> ()
          done
        end
      done;
      for id = 0 to n - 1 do
        if fired.(id) && waiting.(id) = 0 then Heap.push by_index ~key:id id
      done;
      let cur = ref start in
      let issued = ref 0 in
      let exec_done = ref start in
      while by_index.Heap.size > 0 || by_cycle.Heap.size > 0 do
        while by_cycle.Heap.size > 0 && Heap.min_key by_cycle <= !cur do
          let id = Heap.pop by_cycle in
          Heap.push by_index ~key:id id
        done;
        let slots = ref m.Machine.issue_per_tile in
        while !slots > 0 && by_index.Heap.size > 0 && gate window !issued <= !cur
        do
          let id = Heap.pop by_index in
          let i = instrs.(id) in
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
          window.(!issued mod Array.length window) <- c;
          incr issued;
          decr slots;
          if c > !exec_done then exec_done := c;
          let targets = i.Bi.targets in
          for k = 0 to Array.length targets - 1 do
            match targets.(k) with
            | Target.To_instr { id = d; _ } when fired.(d) ->
                if c > ready.(d) then ready.(d) <- c;
                waiting.(d) <- waiting.(d) - 1;
                if waiting.(d) = 0 then Heap.push by_cycle ~key:ready.(d) d
            | Target.To_instr _ | Target.To_write _ -> ()
          done
        done;
        (* jump to the next cycle anything can issue: everything left
           in [by_cycle] is ready after [!cur] *)
        if by_index.Heap.size > 0 then
          cur := Int.max (!cur + 1) (gate window !issued)
        else if by_cycle.Heap.size > 0 then
          cur := Int.max (Heap.min_key by_cycle) (gate window !issued)
      done;
      (* store commit: the engine already wrote memory; charge the
         D-cache and the commit bandwidth for every fired store holding
         two non-null operands. That includes a store a later null
         token resolved as [Nulled] after both operands arrived, which
         commits nothing: the model has always charged it, and the
         committed cycle counts depend on it. *)
      sim.clock <- !exec_done;
      let committed_stores = ref 0 in
      for id = 0 to n - 1 do
        if
          instrs.(id).Bi.is_store && fired.(id) && df.Df.lset.(id)
          && df.Df.rset.(id)
          && not (df.Df.left.(id).Token.null || df.Df.right.(id).Token.null)
        then begin
          ignore
            (Ms.dcache_latency ms ~cycle:sim.clock ~addr:(Df.address df id)
               ~write:true);
          incr committed_stores
        end
      done;
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
        | Some p -> not (String.equal p actual)
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
        if mispredicted || Option.is_none predicted then m.Machine.predict_cycles
        else 0
      in
      sim.clock <- Int.max (commit_done + bubble) (block_start + 1);
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
  let cap = max 1 imgp.Bi.max_n in
  let sim =
    {
      imgp;
      machine;
      df = Df.for_program imgp;
      regs;
      mem;
      stats;
      ms = Ms.create machine ~stats ~obs;
      waiting = Array.make cap 0;
      ready = Array.make cap 0;
      by_cycle = Heap.create cap;
      by_index = Heap.create cap;
      window = Array.make (max 1 (min m.Machine.window_size imgp.Bi.max_n)) 0;
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
