(* The job server: protocol parsing, request handling, single-flight
   dedup, backpressure, timeouts, and — the property the whole serve
   layer must preserve — server responses byte-identical to a direct
   Experiment.run_one at every -j.

   Servers bind relative socket paths, which the dune sandbox keeps
   private to this test run (and short enough for sun_path). *)

module Json = Edge_serve.Json
module Proto = Edge_serve.Proto
module Server = Edge_serve.Server
module Client = Edge_serve.Client
module Disk_cache = Edge_parallel.Disk_cache
module Experiment = Edge_harness.Experiment

let rtype v = Option.value (Json.str_member "type" v) ~default:"?"
let reason v = Option.value (Json.str_member "reason" v) ~default:"?"

let with_server ?cache ?(jobs = 2) ?queue_cap name f =
  let cfg = Server.default_config ?cache ~socket_path:(name ^ ".sock") () in
  let cfg =
    { cfg with jobs; queue_cap = Option.value queue_cap ~default:cfg.queue_cap }
  in
  let srv = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

(* poll [stats] on a connection of its own until [ready stat] holds: a
   test that needs a job running waits on the server, not on a clock *)
let await_stats sock ready =
  let c = Client.connect sock in
  let rec poll tries =
    match Client.rpc c (Json.Obj [ ("op", Json.Str "stats") ]) with
    | Ok v ->
        let stat k =
          match Json.num_member k v with
          | Some n -> int_of_float n
          | None -> Alcotest.failf "stats missing %s" k
        in
        if not (ready stat) then
          if tries = 0 then Alcotest.failf "stats never got there: %s" (Json.to_string v)
          else begin
            Thread.delay 0.001;
            poll (tries - 1)
          end
    | Error e -> Alcotest.fail e
  in
  poll 10_000;
  Client.close c

(* the one worker has popped every accepted job: the queue is empty *)
let popped n stat = stat "jobs_accepted" = n && stat "queue_depth" = 0

let run_ok c job =
  match Client.run_job c job with
  | Ok v when rtype v = "done" -> v
  | Ok v -> Alcotest.failf "expected done, got %s" (Json.to_string v)
  | Error e -> Alcotest.failf "client error: %s" e

(* -- json / protocol unit tests ------------------------------------ *)

let json_roundtrip () =
  let cases =
    [
      "null"; "true"; "-12"; "3.5"; "\"a\\n\\\"b\\\\\""; "[]"; "[1,2,[3]]";
      "{}"; "{\"k\":1,\"nest\":{\"a\":[true,null]}}";
      "{\"a\": [1, -2.5e3, true, null, \"x\\n\"]}"; "-0.5E+2";
      "{\"rows\":[{\"a\":1,\"b\":[2]},{}],\"t\":{\"x\":1},\"o\":{\"n\":{\"m\":[]}}}";
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error e -> Alcotest.failf "parse %S: %s" s e
      | Ok v ->
          (* print → reparse → print is a fixpoint, in the one-line
             wire form and in the indented file form alike *)
          List.iter
            (fun (form, print) ->
              let p = print v in
              match Json.parse p with
              | Error e -> Alcotest.failf "reparse %s %S: %s" form p e
              | Ok v' ->
                  Alcotest.(check bool) (form ^ " value " ^ s) true (v = v');
                  Alcotest.(check string)
                    (form ^ " fixpoint " ^ s) p (print v'))
            [ ("wire", Json.to_string); ("file", Json.pretty) ])
    cases;
  Alcotest.(check string)
    "prepend_member"
    (Json.to_string (Json.Obj [ ("id", Json.Str "j\"1"); ("a", Json.Num 1.) ]))
    (Json.prepend_member "id" (Json.Str "j\"1")
       (Json.to_string (Json.Obj [ ("a", Json.Num 1.) ])));
  (* strict RFC 8259: no leading zeros, no bare '.', no trailing commas *)
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [
      ""; "{"; "[1,"; "nul"; "{\"a\"}"; "\"\\x\""; "1 2"; "{'a':1}"; "[1,]";
      "{\"a\":}"; "[1] trailing"; "\"unterminated"; "01"; "-01"; "1."; "1.e5";
      "{\"fuel\":007}";
    ]

let proto_parse () =
  (match Proto.parse_request "{\"id\":\"x\",\"workload\":\"w\",\"config\":\"Both\"}" with
  | { Proto.id = Some "x"; req = Ok (Proto.Job s) } ->
      Alcotest.(check bool) "workload kind" true (s.Proto.kind = `Workload "w");
      Alcotest.(check string) "config" "Both" s.Proto.config;
      Alcotest.(check bool) "no trace" false s.Proto.trace
  | _ -> Alcotest.fail "workload job did not parse");
  (match Proto.parse_request "{\"source\":\"kernel k\",\"config\":\"Both\",\"trace\":true,\"fuel\":5}" with
  | { Proto.req = Ok (Proto.Job s); _ } ->
      Alcotest.(check bool) "source kind" true (s.Proto.kind = `Source "kernel k");
      Alcotest.(check bool) "trace on" true s.Proto.trace;
      Alcotest.(check (option int)) "fuel" (Some 5) s.Proto.fuel
  | _ -> Alcotest.fail "source job did not parse");
  (match
     Proto.parse_request
       "{\"workload\":\"w\",\"config\":\"Both\",\"machine\":\"inorder_edge\"}"
   with
  | { Proto.req = Ok (Proto.Job s); _ } ->
      Alcotest.(check (option string))
        "machine" (Some "inorder_edge") s.Proto.machine
  | _ -> Alcotest.fail "machine job did not parse");
  (match Proto.parse_request "{\"op\":\"ping\"}" with
  | { Proto.req = Ok Proto.Ping; _ } -> ()
  | _ -> Alcotest.fail "ping did not parse");
  (* structured rejections, id preserved when recoverable *)
  List.iter
    (fun line ->
      match Proto.parse_request line with
      | { Proto.req = Error _; _ } -> ()
      | _ -> Alcotest.failf "%S should not parse" line)
    [
      "not json";
      "[]";
      "{\"op\":\"reboot\"}";
      "{\"workload\":\"w\"}" (* missing config *);
      "{\"workload\":1,\"config\":\"Both\"}";
      "{\"workload\":\"w\",\"source\":\"s\",\"config\":\"Both\"}";
      "{\"source\":\"s\",\"config\":\"Both\",\"fuel\":0}";
      "{\"source\":\"s\",\"config\":\"Both\",\"trace\":\"yes\"}";
      "{\"workload\":\"w\",\"config\":\"Both\",\"machine\":7}";
      "{\"workload\":\"w\",\"config\":\"Both\",\"fuel\":007}";
    ];
  match Proto.parse_request "{\"id\":\"j7\",\"op\":\"nope\"}" with
  | { Proto.id = Some "j7"; req = Error _ } -> ()
  | _ -> Alcotest.fail "id should survive a bad op"

(* identical jobs merge, different bounds do not *)
let proto_digest () =
  let base =
    {
      Proto.kind = `Source "kernel k";
      config = "Both";
      machine = None;
      image = None;
      trace = false;
      lint = false;
      timeout_ms = None;
      max_cycles = None;
      fuel = None;
    }
  in
  let d = Proto.job_digest in
  Alcotest.(check string) "digest is stable" (d base) (d base);
  Alcotest.(check string)
    "timeout/trace do not split the flight"
    (d base)
    (d { base with trace = true; timeout_ms = Some 5 });
  Alcotest.(check bool) "config splits" true (d base <> d { base with config = "Hyper" });
  Alcotest.(check bool) "fuel splits" true (d base <> d { base with fuel = Some 9 });
  Alcotest.(check bool)
    "machine splits" true
    (d base <> d { base with machine = Some "inorder_edge" });
  Alcotest.(check bool)
    "kind splits" true
    (d base <> d { base with kind = `Workload "kernel k" })

(* -- server behaviour ---------------------------------------------- *)

let ops_roundtrip () =
  with_server "srv_ops" @@ fun srv ->
  let c = Client.connect "srv_ops.sock" in
  (match Client.rpc c (Json.Obj [ ("op", Json.Str "ping") ]) with
  | Ok v -> Alcotest.(check string) "pong" "pong" (rtype v)
  | Error e -> Alcotest.fail e);
  (match Client.rpc c (Json.Obj [ ("op", Json.Str "stats") ]) with
  | Ok v ->
      Alcotest.(check string) "stats" "stats" (rtype v);
      Alcotest.(check (option string))
        "protocol version" (Some Proto.protocol)
        (Json.str_member "protocol" v)
  | Error e -> Alcotest.fail e);
  (* malformed input is a structured error, and the server survives *)
  Client.send_line c "][ nonsense";
  (match Client.recv c with
  | Some (Ok v) ->
      Alcotest.(check string) "protocol error" "error" (rtype v);
      Alcotest.(check string) "reason" "protocol" (reason v)
  | _ -> Alcotest.fail "no structured error for garbage");
  (match Client.rpc c (Json.Obj [ ("op", Json.Str "ping") ]) with
  | Ok v -> Alcotest.(check string) "pong after garbage" "pong" (rtype v)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "no shutdown yet" false (Server.shutdown_requested srv);
  (match Client.rpc c (Json.Obj [ ("op", Json.Str "shutdown") ]) with
  | Ok v -> Alcotest.(check string) "ack" "shutting_down" (rtype v)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "shutdown requested" true (Server.shutdown_requested srv);
  Client.close c

(* server answers must be byte-identical (same run digest) to a direct
   Experiment.run_one, for every -j, cold and warm *)
let identical_across_jobs () =
  Edge_check.Check.without_check @@ fun () ->
  let specs = [ ("tblook01", "Both"); ("canrdr01", "Hyper") ] in
  let direct =
    List.map
      (fun (w, c) ->
        let workload = Option.get (Edge_workloads.Registry.find w) in
        let config = Option.get (Server.find_config c) in
        match Experiment.run_one workload (c, config) with
        | Ok r -> (Server.run_digest r, r)
        | Error e -> Alcotest.failf "direct %s/%s: %s" w c e)
      specs
  in
  List.iter
    (fun jobs ->
      let name = Printf.sprintf "srv_id%d" jobs in
      let cache =
        Disk_cache.create ~dir:(Test_support.Tmpdir.path (name ^ ".cache")) ()
      in
      with_server ~cache ~jobs name @@ fun _srv ->
      let c = Client.connect (name ^ ".sock") in
      List.iter2
        (fun (w, cfg) (digest, (r : Experiment.run)) ->
          (* cold, then warm: both must match the direct run *)
          List.iter
            (fun pass ->
              let v = run_ok c (Client.workload_job ~workload:w ~config:cfg ()) in
              Alcotest.(check (option string))
                (Printf.sprintf "-j%d %s %s/%s digest" jobs pass w cfg)
                (Some digest)
                (Json.str_member "run_digest" v);
              Alcotest.(check (option (float 0.0)))
                (Printf.sprintf "-j%d %s %s/%s cycles" jobs pass w cfg)
                (Some (float_of_int r.Experiment.cycles))
                (Json.num_member "cycles" v);
              Alcotest.(check (option string))
                (Printf.sprintf "-j%d %s %s/%s ret" jobs pass w cfg)
                (Some (Int64.to_string r.Experiment.ret))
                (Json.str_member "ret" v))
            [ "cold"; "warm" ])
        specs direct;
      Client.close c)
    [ 1; 2; 4 ]

(* N client threads x M mixed cold/warm jobs; every response must match
   the direct digest for its spec *)
let mixed_battery () =
  Edge_check.Check.without_check @@ fun () ->
  let specs = [| ("tblook01", "Both"); ("tblook01", "Hyper") |] in
  let direct =
    Array.map
      (fun (w, c) ->
        let workload = Option.get (Edge_workloads.Registry.find w) in
        let config = Option.get (Server.find_config c) in
        match Experiment.run_one workload (c, config) with
        | Ok r -> Server.run_digest r
        | Error e -> Alcotest.failf "direct %s/%s: %s" w c e)
      specs
  in
  let cache =
    Disk_cache.create ~dir:(Test_support.Tmpdir.path "srv_mix.cache") ()
  in
  with_server ~cache ~jobs:3 "srv_mix" @@ fun _srv ->
  let threads = 4 and per_thread = 6 in
  let failures = Atomic.make 0 in
  let worker k () =
    let c = Client.connect "srv_mix.sock" in
    for i = 0 to per_thread - 1 do
      let idx = (k + i) mod Array.length specs in
      let w, cfg = specs.(idx) in
      match Client.run_job c (Client.workload_job ~workload:w ~config:cfg ()) with
      | Ok v
        when rtype v = "done"
             && Json.str_member "run_digest" v = Some direct.(idx) ->
          ()
      | Ok v ->
          Printf.eprintf "thread %d job %d: bad response %s\n" k i
            (Json.to_string v);
          Atomic.incr failures
      | Error e ->
          Printf.eprintf "thread %d job %d: %s\n" k i e;
          Atomic.incr failures
    done;
    Client.close c
  in
  let ths = List.init threads (fun k -> Thread.create (worker k) ()) in
  List.iter Thread.join ths;
  Alcotest.(check int) "every mixed job matched its direct digest" 0
    (Atomic.get failures)

(* a deliberately slow source kernel: enough loop iterations that the
   cycle simulator holds a worker for a while *)
let slow_kernel salt =
  Printf.sprintf
    "kernel slow%s(int x, int y, int* A, int* B) {\n\
    \  int s = 0;\n\
    \  int i;\n\
    \  for (i = 0; i < 60000; i = i + 1) { s = s + i - y; }\n\
    \  return s;\n\
     }\n"
    salt

(* single worker busy on a blocker; 5 identical jobs stampede in behind
   it; single-flight must collapse them into one execution *)
let single_flight_stampede () =
  Edge_check.Check.without_check @@ fun () ->
  with_server ~jobs:1 "srv_flight" @@ fun srv ->
  let blocker = Client.connect "srv_flight.sock" in
  Client.send blocker
    (Json.Obj
       (("id", Json.Str "blocker")
       :: Client.source_job ~source:(slow_kernel "_blk") ~config:"Merge" ()));
  (* wait for the worker to pick the blocker up, so the stampede below
     is all in the queue at once *)
  await_stats "srv_flight.sock" (popped 1);
  let n = 5 in
  let compiles0 = Experiment.compiles_performed () in
  let results = Array.make n "" in
  let merged = Atomic.make 0 in
  let ths =
    List.init n (fun k ->
        Thread.create
          (fun () ->
            let c = Client.connect "srv_flight.sock" in
            (match
               Client.run_job c
                 ~on_stream:(fun v ->
                   if
                     rtype v = "accepted"
                     && Json.bool_member "merged" v = Some true
                   then Atomic.incr merged)
                 (Client.source_job ~source:(slow_kernel "_st") ~config:"Merge" ())
             with
            | Ok v when rtype v = "done" ->
                results.(k) <-
                  Option.value (Json.str_member "run_digest" v) ~default:"?"
            | Ok v -> results.(k) <- "bad: " ^ Json.to_string v
            | Error e -> results.(k) <- "err: " ^ e);
            Client.close c)
          ())
  in
  List.iter Thread.join ths;
  let compiles = Experiment.compiles_performed () - compiles0 in
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 compiles (blocker + stampede), got %d" compiles)
    true (compiles <= 2);
  Array.iter
    (fun d -> Alcotest.(check string) "stampede digests agree" results.(0) d)
    results;
  Alcotest.(check bool) "first result is a digest" true
    (String.length results.(0) = 32);
  Alcotest.(check int) "4 of 5 merged into the first flight" (n - 1)
    (Atomic.get merged);
  (* blocker still answers on its own connection *)
  (match Client.recv blocker with
  | Some (Ok v) -> Alcotest.(check string) "blocker accepted" "accepted" (rtype v)
  | _ -> Alcotest.fail "blocker got nothing");
  (match Client.recv blocker with
  | Some (Ok v) -> Alcotest.(check string) "blocker done" "done" (rtype v)
  | _ -> Alcotest.fail "blocker job lost");
  Client.close blocker;
  ignore srv

(* queue_cap=1 with a busy worker: the second pending job bounces with
   a retry hint instead of queueing without bound *)
let backpressure () =
  Edge_check.Check.without_check @@ fun () ->
  with_server ~jobs:1 ~queue_cap:1 "srv_bp" @@ fun _srv ->
  let c = Client.connect "srv_bp.sock" in
  Client.send c
    (Json.Obj
       (("id", Json.Str "blk")
       :: Client.source_job ~source:(slow_kernel "_bp") ~config:"Merge" ()));
  (match Client.recv c with
  | Some (Ok v) -> Alcotest.(check string) "blocker accepted" "accepted" (rtype v)
  | _ -> Alcotest.fail "no accept for blocker");
  await_stats "srv_bp.sock" (popped 1) (* worker now busy, queue empty *);
  let c2 = Client.connect "srv_bp.sock" in
  Client.send c2
    (Json.Obj
       (("id", Json.Str "fill")
       :: Client.source_job ~source:(slow_kernel "_bp2") ~config:"Merge" ()));
  (match Client.recv c2 with
  | Some (Ok v) -> Alcotest.(check string) "filler queued" "accepted" (rtype v)
  | _ -> Alcotest.fail "no accept for filler");
  (match
     Client.run_job c2
       (Client.source_job ~source:(slow_kernel "_bp3") ~config:"Merge" ())
   with
  | Ok v ->
      Alcotest.(check string) "overflow rejected" "rejected" (rtype v);
      Alcotest.(check bool) "retry hint present" true
        (Json.num_member "retry_after_ms" v <> None)
  | Error e -> Alcotest.fail e);
  (* merged jobs ride the in-flight entry: no queue slot, so they are
     accepted even at cap *)
  (match
     Client.run_job c2
       (Client.source_job ~source:(slow_kernel "_bp2") ~config:"Merge" ())
   with
  | Ok v -> Alcotest.(check string) "duplicate still served" "done" (rtype v)
  | Error e -> Alcotest.fail e);
  Client.close c;
  Client.close c2

let timeouts () =
  Edge_check.Check.without_check @@ fun () ->
  (* a job whose queue deadline passes while a blocker runs *)
  (with_server ~jobs:1 "srv_to" @@ fun _srv ->
   let c = Client.connect "srv_to.sock" in
   Client.send c
     (Json.Obj
        (("id", Json.Str "blk")
        :: Client.source_job ~source:(slow_kernel "_to") ~config:"Merge" ()));
   (match Client.recv c with
   | Some (Ok v) -> Alcotest.(check string) "accepted" "accepted" (rtype v)
   | _ -> Alcotest.fail "no accept");
   await_stats "srv_to.sock" (popped 1);
   (match
      Client.run_job c
        (Client.source_job ~timeout_ms:1 ~source:(slow_kernel "_to2")
           ~config:"Merge" ())
    with
   | Ok v ->
       Alcotest.(check string) "queue timeout" "error" (rtype v);
       Alcotest.(check string) "reason" "timeout" (reason v)
   | Error e -> Alcotest.fail e);
   Client.close c);
  (* a non-terminating kernel bounded by fuel *)
  with_server ~jobs:1 "srv_to2" @@ fun _srv ->
  let c = Client.connect "srv_to2.sock" in
  let spin =
    "kernel spin(int x, int y, int* A, int* B) {\n\
    \  int s = 0;\n\
    \  while (x > 0) { s = s + 1; }\n\
    \  return s;\n\
     }\n"
  in
  (match
     Client.run_job c (Client.source_job ~fuel:20_000 ~source:spin ~config:"Merge" ())
   with
  | Ok v ->
      Alcotest.(check string) "execution timeout" "error" (rtype v);
      Alcotest.(check string) "reason" "timeout" (reason v)
  | Error e -> Alcotest.fail e);
  Client.close c

(* a job fails as a timeout only when a bounded stage ran out, not when
   a front-end error happens to name a variable [watchdog] *)
let timeout_reasons () =
  Edge_check.Check.without_check @@ fun () ->
  with_server ~jobs:1 "srv_reasons" @@ fun _srv ->
  let c = Client.connect "srv_reasons.sock" in
  let kernel name body =
    Printf.sprintf "kernel %s(int x, int y, int* A, int* B) {\n%s}\n" name
      body
  in
  let expect what ?fuel ?max_cycles source want =
    match
      Client.run_job c
        (Client.source_job ?fuel ?max_cycles ~source ~config:"Merge" ())
    with
    | Ok v ->
        Alcotest.(check string) (what ^ ": type") "error" (rtype v);
        Alcotest.(check string) (what ^ ": reason") want (reason v)
    | Error e -> Alcotest.fail e
  in
  expect "undeclared watchdog"
    (kernel "named" "  return x + watchdog;\n")
    "job";
  expect "undeclared dog" (kernel "named" "  return x + dog;\n") "job";
  expect "interpreter fuel" ~fuel:20_000
    (kernel "spin"
       "  int s = 0;\n  while (x > 0) { s = s + 1; }\n  return s;\n")
    "timeout";
  expect "cycle watchdog" ~max_cycles:200 (slow_kernel "_wd") "timeout";
  List.iter
    (fun (msg, want) ->
      Alcotest.(check bool) msg want (Server.timeoutish msg))
    [
      ("serve-1: fault: fuel exhausted", true);
      ("serve-1/Merge functional: malformed: fuel exhausted", true);
      ("serve-1/Merge cycle: watchdog: 200 cycles", true);
      ("serve-1: undeclared variable watchdog", false);
      ("serve-1: watchdog: many cycles", false);
      ("serve-1: fuel exhausted elsewhere", false);
    ];
  Client.close c

(* traced jobs stream events and a metrics snapshot before done *)
let trace_streaming () =
  with_server ~jobs:1 "srv_trace" @@ fun _srv ->
  let c = Client.connect "srv_trace.sock" in
  let traces = ref 0 and metrics = ref 0 in
  (match
     Client.run_job c
       ~on_stream:(fun v ->
         match rtype v with
         | "trace" -> incr traces
         | "metrics" -> incr metrics
         | _ -> ())
       (Client.workload_job ~trace:true ~workload:"tblook01" ~config:"Merge" ())
   with
  | Ok v -> Alcotest.(check string) "done" "done" (rtype v)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "streamed trace lines" true (!traces > 0);
  Alcotest.(check int) "one metrics snapshot" 1 !metrics;
  Client.close c

(* machine-parameterized jobs: a preset name selects the backend, the
   server's answer is byte-identical to a direct run under that
   machine, and a malformed machine string is a structured config
   error, not a crash *)
let machine_jobs () =
  Edge_check.Check.without_check @@ fun () ->
  let w = "tblook01" and cfg_name = "Both" in
  let workload = Option.get (Edge_workloads.Registry.find w) in
  let config = Option.get (Server.find_config cfg_name) in
  let direct machine =
    match Experiment.run_one ?machine workload (cfg_name, config) with
    | Ok r -> r
    | Error e -> Alcotest.failf "direct %s/%s: %s" w cfg_name e
  in
  let grid = direct None in
  let inorder = direct (Some Edge_sim.Machine.inorder_edge) in
  Alcotest.(check bool)
    "backends disagree on cycles (different timing models)" true
    (grid.Experiment.cycles <> inorder.Experiment.cycles);
  Alcotest.(check string) "backends agree on the result"
    (Int64.to_string grid.Experiment.ret)
    (Int64.to_string inorder.Experiment.ret);
  with_server ~jobs:2 "srv_mach" @@ fun _srv ->
  let c = Client.connect "srv_mach.sock" in
  let served machine =
    run_ok c (Client.workload_job ?machine ~workload:w ~config:cfg_name ())
  in
  let check_matches what v (r : Experiment.run) =
    Alcotest.(check (option string))
      (what ^ " digest")
      (Some (Server.run_digest r))
      (Json.str_member "run_digest" v);
    Alcotest.(check (option (float 0.0)))
      (what ^ " cycles")
      (Some (float_of_int r.Experiment.cycles))
      (Json.num_member "cycles" v)
  in
  check_matches "default" (served None) grid;
  check_matches "preset name" (served (Some "inorder_edge")) inorder;
  (* a compact key=value line resolves to the same machine *)
  check_matches "compact form"
    (served (Some (Edge_sim.Machine.to_compact Edge_sim.Machine.inorder_edge)))
    inorder;
  (* a bad machine is rejected as a config error *)
  (match
     Client.run_job c
       (Client.workload_job ~machine:"rows=0;cols=0" ~workload:w
          ~config:cfg_name ())
   with
  | Ok v ->
      Alcotest.(check string) "bad machine is an error" "error" (rtype v);
      Alcotest.(check string) "bad machine reason" "config" (reason v)
  | Error e -> Alcotest.fail e);
  Client.close c

(* stopping with work still queued answers every waiter with a
   structured shutdown error and unlinks the socket *)
let shutdown_drains () =
  Edge_check.Check.without_check @@ fun () ->
  let cfg = Server.default_config ~socket_path:"srv_drain.sock" () in
  let srv = Server.start { cfg with jobs = 1 } in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let c = Client.connect "srv_drain.sock" in
  Client.send c
    (Json.Obj
       (("id", Json.Str "blk")
       :: Client.source_job ~source:(slow_kernel "_dr") ~config:"Merge" ()));
  Client.send c
    (Json.Obj
       (("id", Json.Str "queued")
       :: Client.source_job ~source:(slow_kernel "_dr2") ~config:"Merge" ()));
  (* both accepts, then (in either order) the blocker's result and the
     queued job's shutdown error; the server stops as soon as both jobs
     are admitted, while the blocker holds the one worker *)
  let seen = ref [] in
  let rec drain until =
    if not (until ()) then
      match Client.recv c with
      | Some (Ok v) ->
          seen := (Option.value (Json.str_member "id" v) ~default:"?", v) :: !seen;
          drain until
      | Some (Error e) -> Alcotest.failf "bad response during drain: %s" e
      | None -> ()
  in
  drain (fun () ->
      List.length (List.filter (fun (_, v) -> rtype v = "accepted") !seen) = 2);
  Server.stop srv;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists "srv_drain.sock");
  drain (fun () -> false);
  Client.close c;
  let is_term v = rtype v = "done" || rtype v = "error" in
  let terminal id = List.find_opt (fun (i, v) -> i = id && is_term v) !seen in
  (match terminal "queued" with
  | Some (_, v) ->
      Alcotest.(check string) "queued job got a terminal answer" "error" (rtype v);
      Alcotest.(check string) "shutdown reason" "shutdown" (reason v)
  | None -> Alcotest.fail "queued job got no terminal answer");
  match terminal "blk" with
  | Some _ -> ()
  | None -> Alcotest.fail "blocker got no terminal answer"

(* -- pipelining, batching and the warm fast path ------------------- *)

(* a deterministic shuffle so the stress replays identically *)
let shuffle seed a =
  let s = ref seed in
  let rand bound =
    s := (!s * 1103515245) + 12345;
    (!s lsr 7) mod bound
  in
  for i = Array.length a - 1 downto 1 do
    let j = rand (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* 4 client threads, each with 32 jobs in flight on one connection,
   awaited in shuffled order: out-of-order completion matching by id
   is the property under test *)
let pipelined_stress () =
  Edge_check.Check.without_check @@ fun () ->
  let specs = [| ("tblook01", "Both"); ("tblook01", "Hyper") |] in
  let direct =
    Array.map
      (fun (w, c) ->
        let workload = Option.get (Edge_workloads.Registry.find w) in
        let config = Option.get (Server.find_config c) in
        match Experiment.run_one workload (c, config) with
        | Ok r -> Server.run_digest r
        | Error e -> Alcotest.failf "direct %s/%s: %s" w c e)
      specs
  in
  with_server ~jobs:2 "srv_pipe" @@ fun _srv ->
  let threads = 4 and inflight = 32 in
  let failures = Atomic.make 0 in
  let worker k () =
    let c = Client.connect "srv_pipe.sock" in
    (* fire all 32 without reading a single response *)
    let ids =
      Array.init inflight (fun i ->
          let idx = (k + i) mod Array.length specs in
          let w, cfg = specs.(idx) in
          (Client.submit c (Client.workload_job ~workload:w ~config:cfg ()), idx))
    in
    shuffle (0x5EED + k) ids;
    Array.iter
      (fun (id, idx) ->
        match Client.await c id with
        | Ok v
          when rtype v = "done"
               && Json.str_member "run_digest" v = Some direct.(idx) ->
            ()
        | Ok v ->
            Printf.eprintf "thread %d await %s: bad response %s\n" k id
              (Json.to_string v);
            Atomic.incr failures
        | Error e ->
            Printf.eprintf "thread %d await %s: %s\n" k id e;
            Atomic.incr failures)
      ids;
    Client.close c
  in
  let ths = List.init threads (fun k -> Thread.create (worker k) ()) in
  List.iter Thread.join ths;
  Alcotest.(check int) "every shuffled await matched its digest" 0
    (Atomic.get failures)

(* batch frames: one write carries many jobs, every job gets its
   terminal answer, and warm fast-path hits elide the per-job
   accepted line (the terminal done travels in the same flush) while
   single-job submissions keep the v1 accepted-then-done shape *)
let batch_requests () =
  Edge_check.Check.without_check @@ fun () ->
  let specs = [ ("tblook01", "Both"); ("tblook01", "Hyper") ] in
  with_server ~jobs:2 "srv_batch" @@ fun _srv ->
  let c = Client.connect "srv_batch.sock" in
  let jobs =
    List.concat_map
      (fun (w, cfg) ->
        List.init 3 (fun _ -> Client.workload_job ~workload:w ~config:cfg ()))
      specs
  in
  let await_all ids =
    (* accepted lines interleave with other ids' responses, so count
       them per id from both await callbacks rather than per await *)
    let acks = Hashtbl.create 16 in
    let note v =
      if rtype v = "accepted" then
        match Json.str_member "id" v with
        | Some i ->
            Hashtbl.replace acks i
              (1 + Option.value (Hashtbl.find_opt acks i) ~default:0)
        | None -> ()
    in
    List.map
      (fun id ->
        match Client.await c ~on_stream:note ~on_other:note id with
        | Ok v when rtype v = "done" ->
            ( Option.get (Json.str_member "run_digest" v),
              fun () -> Option.value (Hashtbl.find_opt acks id) ~default:0 )
        | Ok v -> Alcotest.failf "batch job %s: %s" id (Json.to_string v)
        | Error e -> Alcotest.failf "batch job %s: %s" id e)
      ids
  in
  (* cold batch: every job is acknowledged before it runs *)
  let cold = await_all (Client.submit_batch c jobs) in
  List.iter
    (fun (_, acks) -> Alcotest.(check int) "cold batch job acked" 1 (acks ()))
    cold;
  (* warm batch: all fast-path hits, accepted lines elided *)
  let warm = await_all (Client.submit_batch c jobs) in
  List.iter2
    (fun (d_cold, _) (d_warm, acks) ->
      Alcotest.(check string) "warm batch digest matches cold" d_cold d_warm;
      Alcotest.(check int) "warm fast hit elides accepted" 0 (acks ()))
    cold warm;
  (* a warm single-job submission still gets the v1 accepted line *)
  let acks = ref 0 in
  (match
     Client.run_job c
       ~on_stream:(fun v -> if rtype v = "accepted" then incr acks)
       (List.hd jobs)
   with
  | Ok v -> Alcotest.(check string) "single warm done" "done" (rtype v)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "single-job path keeps accepted" 1 !acks;
  (* an empty batch is a protocol error, not a hang *)
  Client.send_line c "{\"op\":\"batch\",\"jobs\":[]}";
  (match Client.recv c with
  | Some (Ok v) ->
      Alcotest.(check string) "empty batch rejected" "error" (rtype v)
  | _ -> Alcotest.fail "no answer for empty batch");
  Client.close c

(* pre-encoded block jobs: an honest image reproduces the source job's
   run digest exactly; a corrupted image is a config error; an image
   whose semantics diverge from the named workload fails verification *)
let image_jobs () =
  Edge_check.Check.without_check @@ fun () ->
  let w = "tblook01" and cfg = "Both" in
  with_server ~jobs:2 "srv_img" @@ fun _srv ->
  let c = Client.connect "srv_img.sock" in
  let source_run = run_ok c (Client.workload_job ~workload:w ~config:cfg ()) in
  let image =
    match Client.precompile ~workload:w ~config:cfg () with
    | Ok raw -> raw
    | Error e -> Alcotest.failf "precompile: %s" e
  in
  let image_run = run_ok c (Client.image_job ~workload:w ~config:cfg ~image ()) in
  Alcotest.(check (option string))
    "image job reproduces the source digest"
    (Json.str_member "run_digest" source_run)
    (Json.str_member "run_digest" image_run);
  (* resubmitting the same image answers from cache *)
  let again = run_ok c (Client.image_job ~workload:w ~config:cfg ~image ()) in
  Alcotest.(check (option bool)) "image rerun is warm" (Some true)
    (Json.bool_member "warm" again);
  (* flip a byte mid-payload: decode must fail cleanly *)
  let corrupt = Bytes.of_string image in
  Bytes.set corrupt (Bytes.length corrupt / 2) '\xff';
  (match
     Client.run_job c
       (Client.image_job ~workload:w ~config:cfg
          ~image:(Bytes.to_string corrupt) ())
   with
  | Ok v ->
      Alcotest.(check string) "corrupt image is an error" "error" (rtype v);
      Alcotest.(check string) "corrupt image reason" "config" (reason v)
  | Error e -> Alcotest.fail e);
  (* an image compiled from a different workload must fail the
     named workload's verification battery, not produce numbers *)
  let alien =
    match Client.precompile ~workload:"canrdr01" ~config:cfg () with
    | Ok raw -> raw
    | Error e -> Alcotest.failf "alien precompile: %s" e
  in
  (match
     Client.run_job c (Client.image_job ~workload:w ~config:cfg ~image:alien ())
   with
  | Ok v ->
      Alcotest.(check string) "mismatched image is an error" "error" (rtype v);
      Alcotest.(check string) "mismatched image reason" "job" (reason v)
  | Error e -> Alcotest.fail e);
  Client.close c

(* the stats op exposes the fast path: repeats of a job must count
   fast_hits, batch frames must count batches *)
let fast_path_stats () =
  Edge_check.Check.without_check @@ fun () ->
  with_server ~jobs:1 "srv_fast" @@ fun _srv ->
  let c = Client.connect "srv_fast.sock" in
  let job = Client.workload_job ~workload:"tblook01" ~config:"Hyper" () in
  ignore (run_ok c job : Json.t);
  ignore (run_ok c job : Json.t);
  ignore (run_ok c job : Json.t);
  List.iter
    (fun id -> ignore (Client.await c id : (Json.t, string) result))
    (Client.submit_batch c [ job; job ]);
  match Client.rpc c (Json.Obj [ ("op", Json.Str "stats") ]) with
  | Ok v ->
      let stat k =
        match Json.num_member k v with
        | Some n -> int_of_float n
        | None -> Alcotest.failf "stats missing %s" k
      in
      Alcotest.(check bool) "repeats hit the fast path" true (stat "fast_hits" >= 4);
      Alcotest.(check int) "batch frames counted" 1 (stat "batches");
      Alcotest.(check int) "every job completed" 5 (stat "jobs_completed");
      Client.close c
  | Error e -> Alcotest.fail e

(* stats reports each serve stage's sample count and total µs: one
   cold job passes through parse, compile, sim and encode (encode is
   recorded after the answer goes out, hence the wait) *)
let stage_stats () =
  Edge_check.Check.without_check @@ fun () ->
  with_server ~jobs:1 "srv_stage" @@ fun _srv ->
  let c = Client.connect "srv_stage.sock" in
  ignore (run_ok c (Client.workload_job ~workload:"tblook01" ~config:"BB" ()) : Json.t);
  Client.close c;
  await_stats "srv_stage.sock" (fun stat ->
      List.for_all
        (fun s -> stat ("stage_" ^ s ^ "_count") > 0)
        [ "parse"; "compile"; "sim"; "encode" ])

(* the stats reply is dfpd's one export of its counters, and perfbench's
   serve-mix and serve_bench read its keys by name, taking a missing key
   as 0: a renamed key would fail nothing else.  The exact list, in
   order, with and without a disk cache *)
let stats_keys () =
  let keys ?cache name =
    with_server ?cache name @@ fun _srv ->
    let c = Client.connect (name ^ ".sock") in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    match Client.rpc c (Json.Obj [ ("op", Json.Str "stats") ]) with
    | Ok (Json.Obj fields) -> List.map fst fields
    | Ok v -> Alcotest.failf "stats is not an object: %s" (Json.to_string v)
    | Error e -> Alcotest.fail e
  in
  let server =
    [
      "type"; "protocol"; "jobs_accepted"; "jobs_merged"; "jobs_completed";
      "jobs_failed"; "jobs_rejected"; "timeouts"; "protocol_errors";
      "trace_events"; "fast_hits"; "batches"; "queue_depth"; "workers";
      "workers_spawned";
    ]
  and disk = [ "cache_hits"; "cache_misses"; "cache_errors"; "cache_evictions" ]
  and mem_and_stages =
    [
      "mem_hits"; "mem_misses"; "mem_entries"; "mem_evictions";
      "stage_parse_count"; "stage_parse_us"; "stage_queue_count";
      "stage_queue_us"; "stage_compile_count"; "stage_compile_us";
      "stage_sim_count"; "stage_sim_us"; "stage_encode_count";
      "stage_encode_us";
    ]
  in
  Alcotest.(check (list string))
    "without a disk cache" (server @ mem_and_stages) (keys "srv_keys");
  let cache =
    Disk_cache.create ~dir:(Test_support.Tmpdir.path "srv_keys.cache") ()
  in
  Alcotest.(check (list string))
    "with a disk cache"
    (server @ disk @ mem_and_stages)
    (keys ~cache "srv_keys_disk")

(* The README's response order: a job's "accepted" precedes its
   terminal line. On a -j1 server a cold job runs on a worker domain as
   soon as it is queued, so that worker's "done" races the reader
   thread's verdict. Part one sends 100 distinct cold source jobs one
   at a time and reads raw lines: the first line back must be the job's
   "accepted". Part two drives 20 more the way a lock-step client
   does, stopping at the terminal line, then sends a malformed line:
   the next line must be its protocol error, not a late "accepted". *)
let order_kernel k =
  Printf.sprintf
    "kernel order%d(int x, int y, int* A, int* B) { return x + %d; }\n" k k

let accepted_precedes_terminal () =
  Edge_check.Check.without_check @@ fun () ->
  with_server ~jobs:1 "srv_order" @@ fun _srv ->
  let c = Client.connect "srv_order.sock" in
  let next what =
    match Client.recv c with
    | Some (Ok v) -> v
    | Some (Error e) -> Alcotest.failf "%s: unparseable line: %s" what e
    | None -> Alcotest.failf "%s: connection closed" what
  in
  let job k = Client.source_job ~source:(order_kernel k) ~config:"BB" () in
  for k = 0 to 99 do
    let id = Printf.sprintf "o%d" k in
    Client.send c (Json.Obj (("id", Json.Str id) :: job k));
    let first = next id in
    Alcotest.(check (pair string (option string)))
      (id ^ ": first line is its accepted")
      ("accepted", Some id)
      (rtype first, Json.str_member "id" first);
    let rec until_terminal () =
      let v = next id in
      if not (Client.is_terminal v) then until_terminal ()
      else Alcotest.(check string) (id ^ ": terminal") "done" (rtype v)
    in
    until_terminal ()
  done;
  for k = 100 to 119 do
    (match Client.run_job c (job k) with
    | Ok v -> Alcotest.(check string) "cold job done" "done" (rtype v)
    | Error e -> Alcotest.failf "cold job %d: %s" k e);
    Client.send_line c "{\"op\":";
    let v = next "malformed line" in
    Alcotest.(check (pair string string))
      "malformed line answered by its own error" ("error", "protocol")
      (rtype v, reason v)
  done;
  Client.close c

let tests =
  [
    Alcotest.test_case "json roundtrip" `Quick json_roundtrip;
    Alcotest.test_case "proto parse" `Quick proto_parse;
    Alcotest.test_case "proto digest" `Quick proto_digest;
    Alcotest.test_case "ops roundtrip" `Quick ops_roundtrip;
    Alcotest.test_case "identical across jobs" `Quick identical_across_jobs;
    Alcotest.test_case "mixed cold/warm battery" `Quick mixed_battery;
    Alcotest.test_case "single-flight stampede" `Quick single_flight_stampede;
    Alcotest.test_case "backpressure" `Quick backpressure;
    Alcotest.test_case "timeouts" `Quick timeouts;
    Alcotest.test_case "timeout reasons" `Quick timeout_reasons;
    Alcotest.test_case "trace streaming" `Quick trace_streaming;
    Alcotest.test_case "machine jobs" `Quick machine_jobs;
    Alcotest.test_case "shutdown drains" `Quick shutdown_drains;
    Alcotest.test_case "pipelined stress" `Quick pipelined_stress;
    Alcotest.test_case "batch requests" `Quick batch_requests;
    Alcotest.test_case "image jobs" `Quick image_jobs;
    Alcotest.test_case "fast-path stats" `Quick fast_path_stats;
    Alcotest.test_case "stage stats" `Quick stage_stats;
    Alcotest.test_case "stats keys pinned" `Quick stats_keys;
    Alcotest.test_case "accepted precedes terminal" `Quick
      accepted_precedes_terminal;
  ]
