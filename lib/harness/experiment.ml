module Conv = Edge_isa.Conventions
module Mem = Edge_isa.Mem
module Workload = Edge_workloads.Workload

type run = {
  workload : string;
  config : string;
  cycles : int;
  ret : int64;  (* the verified return value (equal across all three executors) *)
  stats : Edge_sim.Stats.t;
  static_instrs : int;
  static_blocks : int;
  static_fanout_moves : int;
  explicit_predicates : int;
  pass_counters : (string * int) list;  (* compiler "pass.*" counters *)
  compile_s : float;  (* wall-clock spent compiling (~0 on a shared compile) *)
  sim_s : float;  (* wall-clock spent in reference/functional/cycle sims *)
}

let ( let* ) = Result.bind

(* compiles performed process-wide; the serve tests use the delta to
   prove single-flight dedup collapses a stampede of identical jobs into
   one compile, the harness tests that a sweep compiles each
   (workload, config) once *)
let compile_counter = Atomic.make 0

let compiles_performed () = Atomic.get compile_counter

let compile ?check ?lint (w : Workload.t) config =
  Atomic.incr compile_counter;
  let* ast = Workload.parse w in
  let* cfg = Edge_lang.Lower.lower ast in
  Dfp.Driver.compile_cfg ?check ?lint cfg config

(* ineffectuality lint over raw kernel source: compile in report mode
   and collect the findings.  A compile's later attempts can re-report
   a surviving block's findings; sort_uniq collapses the duplicates. *)
let lint_source ?check source config =
  let* ast = Edge_lang.Parser.parse source in
  let* cfg = Edge_lang.Lower.lower ast in
  let findings = ref [] in
  let* _compiled =
    Dfp.Driver.compile_cfg ?check
      ~lint:(fun f -> findings := f :: !findings)
      cfg config
  in
  Ok (List.sort_uniq compare !findings)

let lint ?check (w : Workload.t) config =
  lint_source ?check w.Workload.source config

(* the reference interpreter's answer, which every simulated run of
   the workload must reproduce: return value and final memory *)
let reference_run ?fuel (w : Workload.t) =
  match Workload.reference_run ?fuel w with
  | Ok (r, m) -> Ok (Option.value ~default:0L r, m)
  | Error e -> Error e

let setup_run (w : Workload.t) =
  let mem = Mem.create ~size:w.Workload.mem_size in
  let args = w.Workload.setup mem in
  let regs = Array.make Conv.num_regs 0L in
  List.iteri (fun i v -> regs.(Conv.param_reg i) <- v) args;
  (regs, mem)

(* key for the persistent cache: everything a run's numbers depend on.
   The kernel source digest covers the workload (setup/description are
   derived from the same definition site), the marshalled config and
   machine cover both sweep axes, and the simulator revision invalidates
   every entry when simulated semantics change. *)
let cache_key (w : Workload.t) config_name config machine =
  String.concat "|"
    [
      "run-v2";
      Edge_sim.Backend.revision machine;
      w.Workload.name;
      Digest.to_hex (Digest.string w.Workload.source);
      string_of_int w.Workload.mem_size;
      config_name;
      Digest.to_hex (Digest.string (Marshal.to_string config []));
      Digest.to_hex (Digest.string (Marshal.to_string machine []));
    ]

(* the verified execution of one compiled artifact: functional check
   against the reference, then the timed cycle-simulator run, also
   checked. Shared between source-compiled and pre-encoded runs. *)
let run_body ~machine ?obs (w : Workload.t) config_name
    (compiled : Dfp.Driver.compiled) ~reference ~ref_mem =
  (* functional check *)
  let regs, mem = setup_run w in
  let* _ =
    match
      Edge_sim.Functional.run compiled.Dfp.Driver.program ~regs ~mem
    with
    | Ok s -> Ok s
    | Error e -> Error (Printf.sprintf "%s/%s functional: %s" w.Workload.name config_name e)
  in
  let* () =
    if Int64.equal regs.(Conv.result_reg) reference && Mem.equal mem ref_mem
    then Ok ()
    else
      Error
        (Printf.sprintf "%s/%s functional mismatch: ret %Ld vs %Ld"
           w.Workload.name config_name
           regs.(Conv.result_reg)
           reference)
  in
  (* timed run *)
  let regs, mem = setup_run w in
  (* the compiler schedules for the default grid; a machine with another
     geometry gets its blocks re-placed here (memory is cheap: one array
     per block per run, and the binfo layer caches the hop tables) *)
  let placement =
    if Edge_sim.Machine.same_geometry machine Edge_sim.Machine.default then
      fun n ->
        (match List.assoc_opt n compiled.Dfp.Driver.placements with
        | Some p -> p
        | None -> [||])
    else
      let memo = Hashtbl.create 16 in
      fun n ->
        match Hashtbl.find_opt memo n with
        | Some p -> p
        | None ->
            let p =
              match
                List.assoc_opt n
                  compiled.Dfp.Driver.program.Edge_isa.Program.blocks
              with
              | Some b -> Dfp.Schedule.place ~machine b
              | None -> [||]
            in
            Hashtbl.add memo n p;
            p
  in
  let* stats =
    match
      Edge_sim.Backend.run ~machine ~placement ?obs compiled.Dfp.Driver.program
        ~regs ~mem
    with
    | Ok s -> Ok s
    | Error e -> Error (Printf.sprintf "%s/%s cycle: %s" w.Workload.name config_name e)
  in
  let* () =
    if Int64.equal regs.(Conv.result_reg) reference && Mem.equal mem ref_mem
    then Ok ()
    else
      Error
        (Printf.sprintf "%s/%s cycle mismatch: ret %Ld vs %Ld" w.Workload.name
           config_name
           regs.(Conv.result_reg)
           reference)
  in
  Ok stats

let make_run (w : Workload.t) config_name (compiled : Dfp.Driver.compiled)
    stats ~reference ~compile_s ~sim_s =
  {
    workload = w.Workload.name;
    config = config_name;
    cycles = stats.Edge_sim.Stats.cycles;
    ret = reference;
    stats;
    static_instrs = compiled.Dfp.Driver.static_instrs;
    static_blocks = compiled.Dfp.Driver.static_blocks;
    static_fanout_moves = compiled.Dfp.Driver.static_fanout_moves;
    explicit_predicates = compiled.Dfp.Driver.explicit_predicates;
    pass_counters = compiled.Dfp.Driver.pass_counters;
    compile_s;
    sim_s;
  }

(* the disk cache around [compute]: a hit replays the stored run with
   its times zeroed (it spent nothing compiling or simulating), and a
   computed run is on disk before it is returned *)
let cached ~key cache compute =
  match (Edge_parallel.Disk_cache.find cache ~key : run option) with
  | Some r -> Ok { r with compile_s = 0.; sim_s = 0. }
  | None ->
      let res = compute () in
      Result.iter
        (fun (r : run) -> Edge_parallel.Disk_cache.store cache ~key r)
        res;
      res

(* an attached observer wants the events of a real run, so a cached
   result would be wrong; obs runs always execute. And with the checker
   on, the point is to *run* the verifier over every compile —
   answering from a cached run would skip it.
   [interp_fuel] does not join the cache key: a fuel-bounded run that
   *succeeds* is identical to the unbounded run, and errors (fuel
   exhaustion included) are never cached. *)
let cacheable ?obs () =
  Option.is_none obs && not (Edge_check.Check.enabled ())

(* The reference run and each distinct config's compile are made at
   most once, by the first run the disk cache does not answer; they
   live only in this call, so whoever owns the workload (one pool task)
   owns them, and no other domain can force them. *)
let run_workload ?interp_fuel ?cache ?lint (w : Workload.t) experiments =
  let reference = lazy (reference_run ?fuel:interp_fuel w) in
  let compiles = Hashtbl.create 8 in
  let compiled config =
    match Hashtbl.find_opt compiles config with
    | Some c -> c
    | None ->
        let c = compile ?lint w config in
        Hashtbl.add compiles config c;
        c
  in
  let run (config_name, config, machine, obs) =
    let t0 = Unix.gettimeofday () in
    let* reference, ref_mem = Lazy.force reference in
    let t1 = Unix.gettimeofday () in
    let* compiled = compiled config in
    let t2 = Unix.gettimeofday () in
    let* stats =
      run_body ~machine ?obs w config_name compiled ~reference ~ref_mem
    in
    let t3 = Unix.gettimeofday () in
    Ok
      (make_run w config_name compiled stats ~reference ~compile_s:(t2 -. t1)
         ~sim_s:((t1 -. t0) +. (t3 -. t2)))
  in
  List.map
    (fun ((config_name, config, machine, obs) as experiment) ->
      (* a lint run wants its findings streamed and simulates a
         different artifact: it bypasses the cache, like an obs run *)
      match cache with
      | Some cache when cacheable ?obs () && Option.is_none lint ->
          cached
            ~key:(cache_key w config_name config machine)
            cache
            (fun () -> run experiment)
      | _ -> run experiment)
    experiments

let run_one ?(machine = Edge_sim.Machine.default) ?obs ?interp_fuel ?cache
    ?lint (w : Workload.t) (config_name, config) =
  List.hd
    (run_workload ?interp_fuel ?cache ?lint w
       [ (config_name, config, machine, obs) ])

let run_precompiled_uncached ?(machine = Edge_sim.Machine.default) ?obs
    ?interp_fuel (w : Workload.t) config_name
    (compiled : Dfp.Driver.compiled) =
  let t0 = Unix.gettimeofday () in
  let* reference, ref_mem = reference_run ?fuel:interp_fuel w in
  let* stats =
    run_body ~machine ?obs w config_name compiled ~reference ~ref_mem
  in
  let t3 = Unix.gettimeofday () in
  Ok
    (make_run w config_name compiled stats ~reference ~compile_s:0.
       ~sim_s:(t3 -. t0))

let run_precompiled ?machine ?obs ?interp_fuel ?cache ~image_digest
    (w : Workload.t) (config_name, config) (compiled : Dfp.Driver.compiled) =
  let compute () =
    run_precompiled_uncached ?machine ?obs ?interp_fuel w config_name compiled
  in
  match cache with
  | Some cache when cacheable ?obs () ->
      (* the image digest salts the key: a shipped artifact may differ
         from what this process would compile (other compiler revision —
         or a hostile client), so it must never answer for, or be
         answered by, a source-compiled entry *)
      let key =
        cache_key w config_name config
          (Option.value machine ~default:Edge_sim.Machine.default)
        ^ "|img:" ^ image_digest
      in
      cached ~key cache compute
  | _ -> compute ()
