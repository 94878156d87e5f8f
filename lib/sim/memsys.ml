(* The memory system and observation context both timing backends hold:
   caches, next-block predictor, their timing and statistics, and the
   trace/metrics helpers. Every instrumentation site is guarded on the
   cached [otrace]/[ofull]/[oactive] flags so the null-obs
   configuration never constructs an event or a string. *)

module Obs = Edge_obs.Obs
module Ev = Edge_obs.Event
module Mx = Edge_obs.Metrics
module Bi = Block_image

type t = {
  machine : Machine.t;
  stats : Stats.t;
  l1d : Cache.t;
  l1i : Cache.t;
  l2 : Cache.t;
  predictor : Predictor.t;
  obs : Obs.t;
  otrace : bool;  (* a trace sink is attached *)
  ofull : bool;  (* instruction/token/cache-level events wanted *)
  oactive : bool;  (* sink or metrics attached *)
  ometrics : Mx.t option;
}

let create (m : Machine.t) ~stats ~obs =
  let line_bytes = m.Machine.line_bytes in
  {
    machine = m;
    stats;
    l1d =
      Cache.create ~size_bytes:m.Machine.l1d_size ~ways:m.Machine.l1d_ways
        ~line_bytes ~hit_latency:m.Machine.l1d_latency;
    l1i =
      Cache.create ~size_bytes:m.Machine.l1i_size ~ways:m.Machine.l1i_ways
        ~line_bytes ~hit_latency:m.Machine.l1i_latency;
    l2 =
      Cache.create ~size_bytes:m.Machine.l2_size ~ways:m.Machine.l2_ways
        ~line_bytes ~hit_latency:m.Machine.l2_latency;
    predictor =
      Predictor.create ~history_bits:m.Machine.predictor_history_bits
        ~table_bits:m.Machine.predictor_table_bits ();
    obs;
    otrace = Obs.tracing obs;
    ofull = obs.Obs.full;
    oactive = Obs.active obs;
    ometrics = obs.Obs.metrics;
  }

let emit ms e = Obs.emit ms.obs e

let mincr ?by ms name =
  match ms.ometrics with Some m -> Mx.incr ?by m name | None -> ()

let mobserve ms name v =
  match ms.ometrics with Some m -> Mx.observe m name v | None -> ()

let dcache_latency ms ~cycle ~addr ~write =
  let stats = ms.stats and m = ms.machine in
  stats.Stats.dcache_accesses <- stats.Stats.dcache_accesses + 1;
  if ms.oactive then mincr ms "sim.dcache_accesses";
  if Cache.access ms.l1d ~addr ~write then begin
    if ms.otrace && ms.ofull then
      emit ms (Ev.Cache { cycle; cache = "l1d"; write; hit = true });
    Cache.hit_latency ms.l1d
  end
  else begin
    stats.Stats.dcache_misses <- stats.Stats.dcache_misses + 1;
    if ms.oactive then mincr ms "sim.dcache_misses";
    if ms.otrace && ms.ofull then
      emit ms (Ev.Cache { cycle; cache = "l1d"; write; hit = false });
    let l2_hit = Cache.access ms.l2 ~addr ~write in
    if ms.otrace && ms.ofull then
      emit ms (Ev.Cache { cycle; cache = "l2"; write; hit = l2_hit });
    if l2_hit then Cache.hit_latency ms.l1d + m.Machine.l2_latency
    else Cache.hit_latency ms.l1d + m.Machine.l2_latency + m.Machine.mem_latency
  end

(* Fetching a block reads its code lines through the L1 I-cache; each
   block's code sits at a fixed 1 KB-aligned address by program index. *)
let icache_penalty ms ~cycle (img : Bi.t) =
  let stats = ms.stats and m = ms.machine in
  let lb = m.Machine.line_bytes in
  let base_addr = Int64.of_int (img.Bi.index * 1024) in
  let n_lines = Int.max 1 ((img.Bi.size_words * 4) + lb - 1) / lb in
  let pen = ref 0 in
  for i = 0 to n_lines - 1 do
    stats.Stats.icache_accesses <- stats.Stats.icache_accesses + 1;
    if ms.oactive then mincr ms "sim.icache_accesses";
    let addr = Int64.add base_addr (Int64.of_int (i * lb)) in
    let l1i_hit = Cache.access ms.l1i ~addr ~write:false in
    if ms.otrace && ms.ofull then
      emit ms (Ev.Cache { cycle; cache = "l1i"; write = false; hit = l1i_hit });
    if not l1i_hit then begin
      stats.Stats.icache_misses <- stats.Stats.icache_misses + 1;
      if ms.oactive then mincr ms "sim.icache_misses";
      pen :=
        !pen
        + (if Cache.access ms.l2 ~addr ~write:false then m.Machine.l2_latency
           else m.Machine.l2_latency + m.Machine.mem_latency)
    end
  done;
  !pen
