(* The dfpd job server.

   One listener thread accepts Unix-socket connections; one reader
   thread per connection parses newline-delimited JSON requests; a pool
   of worker *domains* (real parallelism — compilation and simulation
   are CPU-bound) drains a bounded job queue. Identical in-flight jobs
   are deduplicated single-flight style: the digest of (kernel, config,
   bounds) keys an in-flight table, and latecomers just attach
   themselves as extra waiters on the first entry, so a 16-way stampede
   of the same job costs one compile and one simulation.

   Backpressure is explicit: when the queue is at [queue_cap] the job
   is rejected with a retry-after hint rather than queued without
   bound. Per-job timeouts are cooperative — the deadline is checked
   when the job reaches the front of the queue, and execution itself is
   bounded by interpreter fuel and the cycle-simulator watchdog, so a
   hostile non-terminating kernel yields a structured timeout error
   instead of wedging a domain.

   Trace jobs ([trace:true]) are never merged and never cached: they
   attach a real {!Edge_obs.Obs} sink that streams one "trace" response
   line per simulator event back to the submitting connection, plus a
   final "metrics" response with the counter snapshot. *)

module Experiment = Edge_harness.Experiment
module Workload = Edge_workloads.Workload
module Disk_cache = Edge_parallel.Disk_cache
module Mem_cache = Edge_parallel.Mem_cache
module Metrics = Edge_obs.Metrics

type config = {
  socket_path : string;
  jobs : int;  (** worker-domain ceiling (domains spawn on demand) *)
  queue_cap : int;  (** pending (not-yet-running) job bound *)
  cache : Disk_cache.t option;
  mem_entries : int;
      (** entry cap (at least 1) of the in-memory result cache behind
          the reader-thread warm fast path *)
  max_cycles : int;  (** watchdog ceiling for source jobs *)
  interp_fuel : int;  (** reference-interpreter bound for source jobs *)
  retry_after_ms : int;  (** hint attached to queue-full rejections *)
}

let default_config ?cache ~socket_path () =
  {
    socket_path;
    jobs = max 1 (Domain.recommended_domain_count () - 1);
    queue_cap = 64;
    cache;
    mem_entries = 4096;
    max_cycles = 10_000_000;
    interp_fuel = 3_000_000;
    retry_after_ms = 50;
  }

(* a connection: its fd plus a mutex serializing writers (the reader
   thread, worker domains and trace sinks all send on it). The reader
   thread holds [send_mu] from a job's admission until its synchronous
   answer is written, so no worker line for that job can overtake it.
   Lock order: [send_mu] before [t.mu]; nothing takes a [send_mu] while
   holding [t.mu]. *)
type conn = {
  fd : Unix.file_descr;
  send_mu : Mutex.t;
  mutable alive : bool;
}

(* write one rendered line; the caller holds [conn.send_mu] (OCaml
   mutexes are not recursive, so the locked paths below share this
   body rather than nesting [send]) *)
let write_line conn (s : string) =
  if conn.alive then
    let buf = Bytes.of_string (s ^ "\n") in
    let len = Bytes.length buf in
    let rec write off =
      if off < len then
        match Unix.write conn.fd buf off (len - off) with
        | n -> write (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> write off
        | exception Unix.Unix_error _ -> conn.alive <- false
    in
    write 0

let send conn (v : Json.t) =
  Mutex.protect conn.send_mu (fun () -> write_line conn (Json.to_string v))

(* one writev-style syscall for a burst of rendered response lines (a
   batch request's accepted/fast-hit lines): one buffer, one write(2)
   for the whole frame instead of one per response; the caller holds
   [conn.send_mu] *)
let write_lines conn = function
  | [] -> ()
  | lines -> write_line conn (String.concat "\n" lines)

(* one queued unit of work; [waiters] accumulates the submitters of
   merged identical jobs — each gets the terminal response under its
   own id *)
type entry = {
  digest : string;
  spec : Proto.job_spec;
  enqueued_at : float;
  deadline : float option;
  mutable waiters : (string option * conn) list;
}

type stats = {
  accepted : int Atomic.t;
  merged : int Atomic.t;
  completed : int Atomic.t;
  failed : int Atomic.t;
  rejected : int Atomic.t;
  timeouts : int Atomic.t;
  protocol_errors : int Atomic.t;
  trace_events : int Atomic.t;
  fast_hits : int Atomic.t;
      (* jobs answered by the reader thread from the mem cache,
         without touching the queue, the in-flight table or a worker *)
  batches : int Atomic.t;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  queue : entry Queue.t;
  mu : Mutex.t;
  inflight : (string, entry) Hashtbl.t;  (* digest -> entry, mu-guarded *)
  fast : (string * string) Mem_cache.t;
      (* the one in-memory result cache, read by the reader-thread fast
         path and keyed "job:<job digest>": the fully rendered
         (accepted, done) response pair (sans ids), so a hit costs one
         stripe probe and two id splices — no Marshal, no MD5, no JSON
         building. A miss goes to a worker, whose run_one consults the
         disk cache. *)
  mutable closing : bool;
  shutdown_req : bool Atomic.t;
  stats : stats;
  (* per stage (indexed by [stage_index]): samples and total µs, which
     [stats] reports; both arrays are guarded by [stage_mu] *)
  stage_count : int array;
  stage_us : int array;
  stage_mu : Mutex.t;
  mutable conns : conn list;  (* mu-guarded *)
  (* worker domains are spawned on demand, up to [cfg.jobs], and run
     until the queue is dry: every live domain joins the runtime's
     stop-the-world handshakes whether it has work or not, so an idle
     worker retires (moving its handle to [dead] for reaping) rather
     than parking in a condvar. A purely warm server is single-domain;
     a cold burst spawns afresh — Domain.spawn is microseconds against
     a compile. [workers]/[dead]/[spawned]/[next_wid] are mu-guarded;
     [active] counts workers currently executing a job. *)
  mutable workers : (int * unit Domain.t) list;
  mutable dead : unit Domain.t list;
  mutable spawned : int;
  mutable next_wid : int;
  active : int Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable conn_threads : Thread.t list;  (* mu-guarded *)
}

(* the stages a request passes through, in [stats] order *)
type stage = Parse | Queue | Compile | Sim | Encode

let stages =
  [
    (Parse, "parse");
    (Queue, "queue");
    (Compile, "compile");
    (Sim, "sim");
    (Encode, "encode");
  ]

let stage_index = function
  | Parse -> 0
  | Queue -> 1
  | Compile -> 2
  | Sim -> 3
  | Encode -> 4

let observe_stage t stage seconds =
  let i = stage_index stage in
  Mutex.lock t.stage_mu;
  t.stage_count.(i) <- t.stage_count.(i) + 1;
  t.stage_us.(i) <- t.stage_us.(i) + int_of_float (seconds *. 1e6);
  Mutex.unlock t.stage_mu

(* -- job execution ------------------------------------------------- *)

(* a source job becomes a synthetic workload under the kernel
   convention (same memory image and arguments as the differential
   oracle), so `fuzz --serve` can diff server verdicts against
   Oracle.run_reference directly *)
let workload_of_source src =
  {
    Workload.name = "serve-" ^ Digest.to_hex (Digest.string src);
    description = "kernel submitted over the dfpd socket";
    source = src;
    mem_size = Edge_harness.Tracekit.mem_size;
    setup = Edge_harness.Tracekit.setup;
  }

let find_config name = List.assoc_opt name Dfp.Config.all_configs

(* digest of the run with its wall-clock noise zeroed: two runs of the
   same job are byte-identical iff these agree *)
let run_digest (r : Experiment.run) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string { r with Experiment.compile_s = 0.; sim_s = 0. } []))

(* a bounded stage ran out: the message ends in the form that stage
   emits, [fault: fuel exhausted] (the reference interpreter),
   [malformed: fuel exhausted] (the functional run) or [watchdog: <n>
   cycles] (a timing backend).  Identifiers cannot contain ':' or a
   space, so a front-end error that names [watchdog] is not one. *)
let timeoutish msg =
  let ends suffix = String.ends_with ~suffix msg in
  ends "fault: fuel exhausted"
  || ends "malformed: fuel exhausted"
  ||
  match List.rev (String.split_on_char ' ' msg) with
  | "cycles" :: n :: "watchdog:" :: _ ->
      n <> "" && String.for_all (fun c -> c >= '0' && c <= '9') n
  | _ -> false

(* run one job to a terminal result; [emit] receives streaming trace /
   metrics responses for the submitting waiter only *)
let execute t (e : entry) ~(emit : Json.t -> unit) :
    (Experiment.run * bool, Proto.error_reason * string) result =
  let spec = e.spec in
  let workload =
    match spec.kind with
    | `Workload name -> (
        match Edge_workloads.Registry.find name with
        | Some w -> Ok w
        | None -> Error (Proto.Bad_config, "unknown workload: " ^ name))
    | `Source src -> Ok (workload_of_source src)
  in
  (* the machine field is a preset name or a Machine.to_compact line;
     anything of_compact rejects is a config error, not a job failure *)
  let req_machine =
    match spec.machine with
    | None -> Ok None
    | Some s -> (
        match Edge_sim.Machine.of_compact s with
        | Ok m -> Ok (Some m)
        | Error e -> Error (Proto.Bad_config, "bad machine: " ^ e))
  in
  (* a pre-encoded image is decoded (and digest-verified) before the
     job counts as runnable: torn or corrupt artifacts are a config
     error, not a job failure *)
  let image =
    match spec.image with
    | None -> Ok None
    | Some raw -> (
        match Wire.decode_compiled raw with
        | Ok c -> Ok (Some (c, Wire.image_digest raw))
        | Error e -> Error (Proto.Bad_config, e))
  in
  match (workload, find_config spec.config, req_machine, image) with
  | Error e, _, _, _ | _, _, Error e, _ | _, _, _, Error e -> Error e
  | Ok _, None, _, _ ->
      Error (Proto.Bad_config, "unknown config: " ^ spec.config)
  | Ok w, Some config, Ok req_machine, Ok image -> (
      (* without a machine field, registry workloads run under the
         stock machine and unbounded fuel so their cache keys (and
         results) are byte-identical to a direct Experiment.run_one;
         untrusted source jobs get bounded fuel and a bounded
         watchdog on top of whatever machine was requested *)
      let machine, interp_fuel =
        match spec.kind with
        | `Workload _ -> (req_machine, None)
        | `Source _ ->
            let base =
              Option.value req_machine ~default:Edge_sim.Machine.default
            in
            let mc =
              min t.cfg.max_cycles
                (Option.value spec.max_cycles ~default:t.cfg.max_cycles)
            in
            ( Some { base with Edge_sim.Machine.max_cycles = mc },
              Some (Option.value spec.fuel ~default:t.cfg.interp_fuel) )
      in
      let obs, finish_obs =
        if not spec.trace then (None, fun () -> ())
        else
          let id = match e.waiters with (id, _) :: _ -> id | [] -> None in
          let metrics = Metrics.create () in
          let sink ev =
            Atomic.incr t.stats.trace_events;
            emit (Proto.trace_line ?id (Edge_obs.Event.to_line ev))
          in
          ( Some (Edge_obs.Obs.make ~level:Edge_obs.Trace.Full ~metrics ~sink ()),
            fun () ->
              emit
                (Proto.job_metrics ?id
                   (List.sort compare (Metrics.counters metrics))) )
      in
      (* lint jobs stream one "lint" line per ineffectuality finding
         before the terminal response; the simulated artifact is the
         lint artifact (deletion suppressed), and like trace jobs the
         result is never merged or cached *)
      let lint =
        if not spec.lint then None
        else
          let id = match e.waiters with (id, _) :: _ -> id | [] -> None in
          Some
            (fun f -> emit (Proto.lint_line ?id (Dfp.Opt_ineff.render f)))
      in
      let result =
        try
          match image with
          | None ->
              Experiment.run_one ?machine ?obs ?interp_fuel
                ?cache:t.cfg.cache ?lint w (spec.config, config)
          | Some _ when spec.lint ->
              Error "lint applies to compiled-from-source jobs, not images"
          | Some (compiled, image_digest) ->
              Experiment.run_precompiled ?machine ?obs ?interp_fuel
                ?cache:t.cfg.cache ~image_digest w (spec.config, config)
                compiled
        with exn -> Error ("exception: " ^ Printexc.to_string exn)
      in
      finish_obs ();
      match result with
      | Ok r ->
          let warm = r.Experiment.compile_s = 0. && r.Experiment.sim_s = 0. in
          if r.Experiment.compile_s > 0. then
            observe_stage t Compile r.Experiment.compile_s;
          if r.Experiment.sim_s > 0. then
            observe_stage t Sim r.Experiment.sim_s;
          Ok (r, warm)
      | Error msg when timeoutish msg -> Error (Proto.Timeout, msg)
      | Error msg -> Error (Proto.Job_failed, msg))

let terminal_response id = function
  | Ok ((r : Experiment.run), warm) ->
      Proto.done_ ?id ~workload:r.Experiment.workload ~config:r.config
        ~cycles:r.cycles ~ret:r.ret ~warm ~run_digest:(run_digest r)
        ~compile_s:r.compile_s ~sim_s:r.sim_s ()
  | Error (reason, message) -> Proto.error ?id ~reason ~message ()

(* deliver the terminal result to every waiter, removing the entry
   from the in-flight table first so a new identical submission starts
   a fresh run rather than attaching to a finished one *)
let complete t (e : entry) result =
  Mutex.lock t.mu;
  (match Hashtbl.find_opt t.inflight e.digest with
  | Some e' when e' == e -> Hashtbl.remove t.inflight e.digest
  | _ -> ());
  let waiters = e.waiters in
  e.waiters <- [];
  Mutex.unlock t.mu;
  (match result with
  | Ok (r, _) ->
      Atomic.incr t.stats.completed;
      (* back the reader-thread fast path: the next identical job is
         answered straight from these pre-rendered lines (times zeroed
         — a replayed result spent nothing compiling or simulating) *)
      if not (e.spec.trace || e.spec.lint) then
        Mem_cache.store t.fast
          ~key:("job:" ^ e.digest)
          ( Json.to_string (Proto.accepted ~digest:e.digest ~merged:false ()),
            Json.to_string
              (Proto.done_ ~workload:r.Experiment.workload
                 ~config:r.Experiment.config ~cycles:r.Experiment.cycles
                 ~ret:r.Experiment.ret ~warm:true ~run_digest:(run_digest r)
                 ~compile_s:0. ~sim_s:0. ()) )
  | Error (Proto.Timeout, _) ->
      Atomic.incr t.stats.timeouts;
      Atomic.incr t.stats.failed
  | Error _ -> Atomic.incr t.stats.failed);
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (id, conn) -> send conn (terminal_response id result))
    waiters;
  observe_stage t Encode (Unix.gettimeofday () -. t0)

let worker_loop t wid () =
  let rec next () =
    let job =
      Mutex.protect t.mu (fun () ->
          if Queue.is_empty t.queue then begin
            (* run until dry, then retire: the handle moves to [dead]
               for the next spawner (or [stop]) to join. The decrement
               and the queue check share one critical section with
               [submit]'s push-and-spawn, so a job can never be left
               queued with nobody coming for it. *)
            t.spawned <- t.spawned - 1;
            (match List.assoc_opt wid t.workers with
            | Some h -> t.dead <- h :: t.dead
            | None -> ());
            t.workers <- List.remove_assoc wid t.workers;
            None
          end
          else begin
            Atomic.incr t.active;
            Some (Queue.pop t.queue, t.closing)
          end)
    in
    match job with
    | None -> ()
    | Some (e, closing) ->
        (if closing then
           complete t e
             (Error (Proto.Shutdown_r, "server shutting down"))
         else
           match e.deadline with
           | Some d when Unix.gettimeofday () > d ->
               complete t e
                 (Error
                    ( Proto.Timeout,
                      Printf.sprintf
                        "timed out after %.0f ms waiting in queue"
                        ((Unix.gettimeofday () -. e.enqueued_at) *. 1000.) ))
           | _ ->
               observe_stage t Queue
                 (Unix.gettimeofday () -. e.enqueued_at);
               let emit v =
                 match e.waiters with
                 | (_, conn) :: _ -> send conn v
                 | [] -> ()
               in
               complete t e (execute t e ~emit));
        Atomic.decr t.active;
        next ()
  in
  next ()

(* -- request handling ---------------------------------------------- *)

let stats_response t =
  let pending, spawned =
    Mutex.protect t.mu (fun () -> (Queue.length t.queue, t.spawned))
  in
  let base =
    [
      ("jobs_accepted", Atomic.get t.stats.accepted);
      ("jobs_merged", Atomic.get t.stats.merged);
      ("jobs_completed", Atomic.get t.stats.completed);
      ("jobs_failed", Atomic.get t.stats.failed);
      ("jobs_rejected", Atomic.get t.stats.rejected);
      ("timeouts", Atomic.get t.stats.timeouts);
      ("protocol_errors", Atomic.get t.stats.protocol_errors);
      ("trace_events", Atomic.get t.stats.trace_events);
      ("fast_hits", Atomic.get t.stats.fast_hits);
      ("batches", Atomic.get t.stats.batches);
      ("queue_depth", pending);
      ("workers", t.cfg.jobs);
      ("workers_spawned", spawned);
    ]
  in
  let cache =
    match t.cfg.cache with
    | None -> []
    | Some c ->
        [
          ("cache_hits", Disk_cache.hits c);
          ("cache_misses", Disk_cache.misses c);
          ("cache_errors", Disk_cache.errors c);
          ("cache_evictions", Disk_cache.evictions c);
        ]
  in
  let mem =
    [
      ("mem_hits", Mem_cache.hits t.fast);
      ("mem_misses", Mem_cache.misses t.fast);
      ("mem_entries", Mem_cache.entry_count t.fast);
      ("mem_evictions", Mem_cache.evictions t.fast);
    ]
  in
  (* per stage: samples and total µs *)
  let stage =
    Mutex.protect t.stage_mu (fun () ->
        List.concat_map
          (fun (stage, name) ->
            let i = stage_index stage in
            [
              ("stage_" ^ name ^ "_count", t.stage_count.(i));
              ("stage_" ^ name ^ "_us", t.stage_us.(i));
            ])
          stages)
  in
  Proto.stats (base @ cache @ mem @ stage)

(* splice a request id in as the first field of a pre-rendered
   response line (always a non-empty JSON object) *)
let with_id id line =
  match id with
  | None -> line
  | Some id -> Json.prepend_member "id" (Json.Str id) line

(* [out] receives the synchronous (reader-thread) responses — verdicts
   and fast-path results — as rendered lines.  Single jobs pass
   [write_line conn]; a batch collects them and flushes once; either
   way the caller holds [conn.send_mu] until they are written.
   Terminal responses of queued jobs are sent by the completing
   worker.  [ack] controls whether a fast hit sends its "accepted"
   line before the terminal response: single jobs keep the dfpd-v1
   accepted-then-done sequence byte for byte, while batch frames elide
   the accepted line when the done travels in the same flush — a third
   of the response bytes for pure overhead (batch verdicts for queued
   and merged jobs are still sent; they are the only synchronous
   answer those jobs get).  Returns the retired worker domains the
   caller joins once it has released [send_mu]. *)
let submit t conn id (spec : Proto.job_spec) ~ack ~(out : string -> unit) =
  let digest = Proto.job_digest spec in
  (* warm fast path: a known result is answered from the mem cache by
     the reader thread itself — no queue, no in-flight table, no
     worker wakeup, no disk. Trace jobs always execute for real. *)
  let fast =
    if spec.trace || spec.lint then None
    else Mem_cache.find t.fast ~key:("job:" ^ digest)
  in
  match fast with
  | Some (accepted, done_line) ->
      Atomic.incr t.stats.accepted;
      Atomic.incr t.stats.fast_hits;
      Atomic.incr t.stats.completed;
      if ack then out (with_id id accepted);
      out (with_id id done_line);
      []
  | None -> (
      let now = Unix.gettimeofday () in
      let fresh () =
        {
          digest;
          spec;
          enqueued_at = now;
          deadline =
            Option.map
              (fun ms -> now +. (float_of_int ms /. 1000.))
              spec.timeout_ms;
          waiters = [ (id, conn) ];
        }
      in
      let reap = ref [] in
      let verdict =
        Mutex.protect t.mu (fun () ->
            if t.closing then `Closing
            else if
              (not (spec.trace || spec.lint))
              && Hashtbl.mem t.inflight digest
            then begin
              let e = Hashtbl.find t.inflight digest in
              e.waiters <- e.waiters @ [ (id, conn) ];
              `Merged
            end
            else if Queue.length t.queue >= t.cfg.queue_cap then `Full
            else begin
              let e = fresh () in
              if not (spec.trace || spec.lint) then
                Hashtbl.replace t.inflight digest e;
              Queue.push e t.queue;
              (* grow the pool only when demand outruns the workers
                 still draining; a single-stream client on a -j4
                 server keeps one domain, and the full ceiling only
                 ever exists under real concurrency *)
              let idle = t.spawned - Atomic.get t.active in
              if Queue.length t.queue > idle && t.spawned < t.cfg.jobs
              then begin
                t.spawned <- t.spawned + 1;
                let wid = t.next_wid in
                t.next_wid <- wid + 1;
                reap := t.dead;
                t.dead <- [];
                t.workers <- (wid, Domain.spawn (worker_loop t wid)) :: t.workers
              end;
              `Queued
            end)
      in
      (match verdict with
      | `Closing ->
          out
            (Json.to_string
               (Proto.error ?id ~reason:Proto.Shutdown_r
                  ~message:"server shutting down" ()))
      | `Merged ->
          Atomic.incr t.stats.accepted;
          Atomic.incr t.stats.merged;
          out (Json.to_string (Proto.accepted ?id ~digest ~merged:true ()))
      | `Full ->
          Atomic.incr t.stats.rejected;
          out
            (Json.to_string
               (Proto.rejected ?id ~retry_after_ms:t.cfg.retry_after_ms ()))
      | `Queued ->
          Atomic.incr t.stats.accepted;
          out (Json.to_string (Proto.accepted ?id ~digest ~merged:false ())));
      !reap)

let handle_line t conn line =
  let t0 = Unix.gettimeofday () in
  let parsed = Proto.parse_request line in
  observe_stage t Parse (Unix.gettimeofday () -. t0);
  let { Proto.id; req } = parsed in
  match req with
  | Error msg ->
      Atomic.incr t.stats.protocol_errors;
      send conn (Proto.error ?id ~reason:Proto.Protocol ~message:msg ())
  | Ok Proto.Ping -> send conn Proto.pong
  | Ok Proto.Stats -> send conn (stats_response t)
  | Ok Proto.Shutdown ->
      Atomic.set t.shutdown_req true;
      send conn (Json.Obj [ ("type", Json.Str "shutting_down") ])
  | Ok (Proto.Job spec) ->
      let reap =
        Mutex.protect conn.send_mu (fun () ->
            submit t conn id spec ~ack:true ~out:(write_line conn))
      in
      (* retired workers are joined outside both locks *)
      List.iter Domain.join reap
  | Ok (Proto.Batch jobs) ->
      (* one frame in, one flush out: every synchronous response of the
         batch (verdicts, fast hits, per-element protocol errors) is
         serialized into a single write, made before any worker line
         for the frame's jobs *)
      Atomic.incr t.stats.batches;
      let reap =
        Mutex.protect conn.send_mu (fun () ->
            let acc = ref [] and reap = ref [] in
            let out line = acc := line :: !acc in
            List.iter
              (fun { Proto.id; req } ->
                match req with
                | Error msg ->
                    Atomic.incr t.stats.protocol_errors;
                    out
                      (Json.to_string
                         (Proto.error ?id ~reason:Proto.Protocol ~message:msg
                            ()))
                | Ok (Proto.Job spec) ->
                    reap := submit t conn id spec ~ack:false ~out @ !reap
                | Ok _ ->
                    (* unreachable: the parser only puts jobs in a batch *)
                    Atomic.incr t.stats.protocol_errors;
                    out
                      (Json.to_string
                         (Proto.error ?id ~reason:Proto.Protocol
                            ~message:"batch elements must be jobs" ())))
              jobs;
            write_lines conn (List.rev !acc);
            !reap)
      in
      List.iter Domain.join reap

let conn_loop t conn () =
  let ic = Unix.in_channel_of_descr conn.fd in
  let rec go () =
    match input_line ic with
    | line ->
        if String.length line > 0 then handle_line t conn line;
        go ()
    | exception (End_of_file | Sys_error _) -> ()
  in
  go ();
  Mutex.lock conn.send_mu;
  conn.alive <- false;
  Mutex.unlock conn.send_mu;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Mutex.protect t.mu (fun () ->
      t.conns <- List.filter (fun c -> c != conn) t.conns)

let accept_loop t () =
  let rec go () =
    if not t.closing then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ ->
              let conn = { fd; send_mu = Mutex.create (); alive = true } in
              let th = Thread.create (conn_loop t conn) () in
              Mutex.protect t.mu (fun () ->
                  t.conns <- conn :: t.conns;
                  t.conn_threads <- th :: t.conn_threads)
          | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ()

(* -- lifecycle ----------------------------------------------------- *)

let start (cfg : config) : t =
  (* a worker writing to a connection the client already closed must
     get EPIPE, not a process-killing signal *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path;
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let t =
    {
      cfg;
      listen_fd;
      queue = Queue.create ();
      mu = Mutex.create ();
      inflight = Hashtbl.create 64;
      fast = Mem_cache.create ~max_entries:cfg.mem_entries ();
      closing = false;
      shutdown_req = Atomic.make false;
      stats =
        {
          accepted = Atomic.make 0;
          merged = Atomic.make 0;
          completed = Atomic.make 0;
          failed = Atomic.make 0;
          rejected = Atomic.make 0;
          timeouts = Atomic.make 0;
          protocol_errors = Atomic.make 0;
          trace_events = Atomic.make 0;
          fast_hits = Atomic.make 0;
          batches = Atomic.make 0;
        };
      stage_count = Array.make (List.length stages) 0;
      stage_us = Array.make (List.length stages) 0;
      stage_mu = Mutex.create ();
      conns = [];
      workers = [];
      dead = [];
      spawned = 0;
      next_wid = 0;
      active = Atomic.make 0;
      accept_thread = None;
      conn_threads = [];
    }
  in
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t

let shutdown_requested t = Atomic.get t.shutdown_req

(* block until some client asked for shutdown (polled: the flag is set
   from connection threads and signal handlers) *)
let wait ?(poll_s = 0.05) t =
  while not (Atomic.get t.shutdown_req) do
    Thread.delay poll_s
  done

let request_shutdown t = Atomic.set t.shutdown_req true

let stop t =
  let already =
    Mutex.protect t.mu (fun () ->
        let was = t.closing in
        t.closing <- true;
        was)
  in
  if not already then begin
    (* live workers drain the queue (answering "shutting down" to
       whatever was still pending) and retire; [closing] stops further
       submits, so this snapshot is complete. Join the already-retired
       handles too — Domain.join is idempotent, so a worker that
       retires between the snapshot and the join is covered either
       way. *)
    let live, retired =
      Mutex.protect t.mu (fun () ->
          let l = List.map snd t.workers and d = t.dead in
          t.dead <- [];
          (l, d))
    in
    List.iter Domain.join live;
    List.iter Domain.join retired;
    Mutex.protect t.mu (fun () ->
        t.workers <- [];
        List.iter Domain.join t.dead;
        t.dead <- []);
    (* every queued entry had a worker coming (push and spawn share a
       critical section), so the queue is dry here; drain defensively
       in case that invariant ever breaks rather than hang clients *)
    let leftover =
      Mutex.protect t.mu (fun () ->
          let l = List.of_seq (Queue.to_seq t.queue) in
          Queue.clear t.queue;
          l)
    in
    List.iter
      (fun e -> complete t e (Error (Proto.Shutdown_r, "server shutting down")))
      leftover;
    (match t.accept_thread with
    | Some th ->
        Thread.join th;
        t.accept_thread <- None
    | None -> ());
    (* wake connection readers blocked in input_line *)
    let conns, threads =
      Mutex.protect t.mu (fun () -> (t.conns, t.conn_threads))
    in
    List.iter
      (fun c ->
        try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
      conns;
    List.iter Thread.join threads;
    Mutex.protect t.mu (fun () -> t.conn_threads <- []);
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    if Sys.file_exists t.cfg.socket_path then
      try Sys.remove t.cfg.socket_path with Sys_error _ -> ()
  end
