(* fuzz: the differential-fuzzing and ISA-invariant campaign driver.

     dune exec bin/fuzz.exe -- --seed 42 -n 500 -j 4

   Runs n generated programs (seeds seed..seed+n-1, sizes cycling
   min..max) through the full oracle: reference interpreter vs
   functional executor vs cycle simulator under every compiler
   configuration, with the static block validator applied to every
   compiled artifact. The report is deterministic — identical for every
   -j — because each task derives everything from its seed and results
   are folded in seed order.

   Failures are greedily minimized and written to the crash corpus
   (--corpus DIR, default test/corpus), which `dune runtest` replays.

     --workloads   validate the compiled artifacts of every registry
                   workload under every configuration instead of fuzzing
     --replay DIR  re-run every corpus entry through the oracle
     --check-smoke DIR
                   run the per-pass static checker (compile only) over
                   every .k kernel in DIR plus 50 fixed-seed generated
                   kernels, under every configuration; any diagnostic
                   fails
     --analyze-smoke DIR
                   same kernel set, but compile in ineffectuality-lint
                   mode: report ineff[...] findings without applying
                   them, with every verdict re-proved by exhaustive
                   path enumeration; a disproved verdict (false
                   positive) fails
     --max-vars N  enumerator width cutoff: blocks with more than N
                   predicate variables are skipped by exhaustive path
                   enumeration (they still get the lattice checker);
                   skip counts are reported
     --no-check    disable the per-pass static checker in the oracle
     --matrix      run the cycle comparison on every timing backend
                   (tiled grid AND the in-order EDGE core) instead of
                   the grid alone
     --serve       replay generated kernels through the dfpd socket
                   protocol against an in-process job server, diffing
                   every verdict (return value / fault / timeout)
                   against the reference interpreter, then hit the
                   server with a malformed-request battery *)

(* fuzz the server boundary: every generated kernel goes through the
   real socket protocol as a source job, and the server's verdict must
   agree with the in-process oracle — a terminating kernel's return
   value comes back bit-exact, a faulting kernel yields a structured
   "job" error, a non-terminating one a structured "timeout", and no
   request (malformed ones included) ever kills the server *)
let run_serve ~seed ~n ~jobs ~min_size ~max_size =
  let module Server = Edge_serve.Server in
  let module Client = Edge_serve.Client in
  let module Json = Edge_serve.Json in
  let module Oracle = Edge_fuzz.Oracle in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dfpd-fuzz-%d-%.0f" (Unix.getpid ())
         (Unix.gettimeofday () *. 1000.))
  in
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "dfpd.sock" in
  let cache =
    Edge_parallel.Disk_cache.create ~dir:(Filename.concat dir "cache") ()
  in
  let cfg =
    { (Server.default_config ~cache ~socket_path:socket ()) with jobs }
  in
  let srv = Server.start cfg in
  let c = Client.connect_retry socket in
  let rtype v = Option.value (Json.str_member "type" v) ~default:"?" in
  let reason v = Option.value (Json.str_member "reason" v) ~default:"?" in
  let failures = ref 0 in
  let oks = ref 0 and faults = ref 0 and skips = ref 0 in
  let fail i fmt =
    Printf.ksprintf
      (fun s ->
        incr failures;
        Format.printf "FAIL serve seed=%d: %s@." i s)
      fmt
  in
  let config_names = Oracle.config_names in
  for i = 0 to n - 1 do
    let s = seed + i in
    let size = Edge_fuzz.Gen.size_for ~min_size ~max_size i in
    let kernel = Edge_fuzz.Gen.generate ~seed:s ~size in
    let src = Edge_fuzz.Pretty.kernel_to_string kernel in
    let config = List.nth config_names (i mod List.length config_names) in
    let expected =
      match Oracle.run_reference kernel with
      | exception Oracle.Skip -> `Skip
      | Ok o -> if o.Oracle.fault then `Fault else `Ret o.Oracle.ret
      | Error _ -> `Fault
    in
    let job =
      Client.source_job ~fuel:Oracle.interp_fuel ~source:src ~config ()
    in
    match Client.run_job c job with
    | Error e -> fail s "server connection died: %s" e
    | Ok v -> (
        match (expected, rtype v) with
        | `Ret r, "done" ->
            incr oks;
            let got = Option.value (Json.str_member "ret" v) ~default:"?" in
            if got <> Int64.to_string r then
              fail s "config %s: ret %s, reference says %Ld" config got r
        | `Ret r, _ ->
            fail s "config %s: %s, reference says ret %Ld" config
              (Json.to_string v) r
        | `Skip, "error" when reason v = "timeout" -> incr skips
        | `Skip, _ ->
            fail s "non-terminating kernel: expected a timeout error, got %s"
              (Json.to_string v)
        | `Fault, "error" when reason v <> "protocol" -> incr faults
        | `Fault, _ ->
            fail s "faulting kernel: expected a job error, got %s"
              (Json.to_string v))
  done;
  (* malformed and truncated requests: each must produce a structured
     protocol error, and the server must still answer afterwards *)
  let malformed =
    [
      "garbage";
      "{\"op\":";
      "{\"workload\":42,\"config\":\"Both\"}";
      "{\"source\":\"kernel k\",\"config\":7}";
      "{\"config\":\"Both\"}";
      "{\"op\":\"reboot\"}";
      "[1,2,3]";
      "{\"source\":\"x\",\"config\":\"Both\",\"fuel\":-5}";
      String.concat "" (List.init 4096 (fun _ -> "{")) (* deep nesting *);
    ]
  in
  List.iter
    (fun line ->
      Client.send_line c line;
      match Client.recv c with
      | Some (Ok v) when rtype v = "error" && reason v = "protocol" -> ()
      | Some (Ok v) ->
          incr failures;
          Format.printf "FAIL serve: %S answered %s, wanted a protocol error@."
            line (Json.to_string v)
      | Some (Error e) ->
          incr failures;
          Format.printf "FAIL serve: unparseable response to %S: %s@." line e
      | None ->
          incr failures;
          Format.printf "FAIL serve: server hung up on %S@." line)
    malformed;
  (match Client.rpc c (Json.Obj [ ("op", Json.Str "ping") ]) with
  | Ok v when rtype v = "pong" -> ()
  | _ ->
      incr failures;
      Format.printf "FAIL serve: no pong after the malformed battery@.");
  Client.close c;
  Server.stop srv;
  (* the server must leave nothing behind *)
  if Sys.file_exists socket then begin
    incr failures;
    Format.printf "FAIL serve: socket file leaked@."
  end;
  Format.printf
    "serve fuzz: %d kernels (%d ok, %d faults, %d timeouts), %d malformed, \
     %d failure(s)@."
    n !oks !faults !skips (List.length malformed) !failures;
  exit (if !failures = 0 then 0 else 1)

let usage =
  "usage: fuzz.exe [--seed S] [-n N] [-j J] [--min-size A] [--max-size B]\n\
  \                [--no-cycle] [--no-validate] [--no-check] [--matrix]\n\
  \                [--no-minimize]\n\
  \                [--max-vars N] [--corpus DIR] [--cache-dir DIR]\n\
  \                [--workloads] [--replay DIR] [--check-smoke DIR]\n\
  \                [--analyze-smoke DIR] [--serve]"

let () =
  let seed = ref 0 in
  let n = ref 100 in
  let jobs = ref (Edge_parallel.Pool.default_jobs ()) in
  let min_size = ref Edge_fuzz.Fuzz.default_min_size in
  let max_size = ref Edge_fuzz.Fuzz.default_max_size in
  let cycle = ref true in
  let machines = ref None in
  let validate = ref true in
  let check = ref true in
  let max_vars = ref None in
  let minimize = ref true in
  let corpus = ref None in
  let cache_dir = ref None in
  let mode = ref `Fuzz in
  let int_arg name v rest k =
    match int_of_string_opt v with
    | Some i -> k i rest
    | None ->
        Printf.eprintf "%s: expected an integer, got %s\n%s\n" name v usage;
        exit 1
  in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest -> int_arg "--seed" v rest (fun i r -> seed := i; parse r)
    | "-n" :: v :: rest -> int_arg "-n" v rest (fun i r -> n := i; parse r)
    | "-j" :: v :: rest -> int_arg "-j" v rest (fun i r -> jobs := max 1 i; parse r)
    | "--min-size" :: v :: rest ->
        int_arg "--min-size" v rest (fun i r -> min_size := i; parse r)
    | "--max-size" :: v :: rest ->
        int_arg "--max-size" v rest (fun i r -> max_size := i; parse r)
    | "--no-cycle" :: rest -> cycle := false; parse rest
    | "--no-validate" :: rest -> validate := false; parse rest
    | "--no-check" :: rest -> check := false; parse rest
    | "--matrix" :: rest ->
        machines := Some Edge_fuzz.Oracle.matrix_machines;
        parse rest
    | "--max-vars" :: v :: rest ->
        int_arg "--max-vars" v rest (fun i r -> max_vars := Some i; parse r)
    | "--no-minimize" :: rest -> minimize := false; parse rest
    | "--corpus" :: dir :: rest -> corpus := Some dir; parse rest
    | "--cache-dir" :: dir :: rest -> cache_dir := Some dir; parse rest
    | "--workloads" :: rest -> mode := `Workloads; parse rest
    | "--replay" :: dir :: rest -> mode := `Replay dir; parse rest
    | "--check-smoke" :: dir :: rest -> mode := `Check_smoke dir; parse rest
    | "--analyze-smoke" :: dir :: rest -> mode := `Analyze_smoke dir; parse rest
    | "--serve" :: rest -> mode := `Serve; parse rest
    | a :: _ ->
        Printf.eprintf "unknown argument %s\n%s\n" a usage;
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* opt-in for fuzzing: campaigns that re-test identical kernels across
     runs (fixed seeds in CI) skip every previously-clean verdict *)
  let cache =
    Option.map (fun dir -> Edge_parallel.Disk_cache.create ~dir ()) !cache_dir
  in
  match !mode with
  | `Serve ->
      run_serve ~seed:!seed ~n:!n ~jobs:!jobs ~min_size:!min_size
        ~max_size:!max_size
  | `Workloads -> (
      Format.printf "validating compiled artifacts: %d workloads x %d configs@."
        (List.length Edge_workloads.Registry.all)
        (List.length Edge_fuzz.Oracle.configs);
      let skipped, errs =
        Edge_fuzz.Fuzz.validate_workloads ~jobs:!jobs ?max_vars:!max_vars ()
      in
      Format.printf "path enumeration declined for %d blocks (max_vars %d)@."
        skipped
        (Option.value ~default:Edge_fuzz.Validate.default_max_vars !max_vars);
      match errs with
      | [] ->
          Format.printf "all artifacts pass the block validator@.";
          exit 0
      | errs ->
          List.iter
            (fun (label, e) -> Format.printf "FAIL %s: %s@." label e)
            errs;
          exit 1)
  | `Check_smoke dir -> (
      let sources = Edge_fuzz.Corpus.load_dir dir in
      Format.printf
        "checker smoke: %d kernels from %s + 50 generated, %d configs@."
        (List.length sources) dir
        (List.length Edge_fuzz.Oracle.configs);
      match Edge_fuzz.Fuzz.check_smoke ~jobs:!jobs ~sources () with
      | [] ->
          Format.printf "checker clean on every compile@.";
          exit 0
      | errs ->
          List.iter
            (fun (label, e) -> Format.printf "FAIL %s: %s@." label e)
            errs;
          exit 1)
  | `Analyze_smoke dir -> (
      let sources = Edge_fuzz.Corpus.load_dir dir in
      Format.printf
        "ineffectuality lint smoke: %d kernels from %s + 50 generated, %d \
         configs@."
        (List.length sources) dir
        (List.length Edge_fuzz.Oracle.configs);
      match Edge_fuzz.Fuzz.analyze_smoke ~jobs:!jobs ~sources () with
      | [], found ->
          Format.printf
            "lint clean: %d finding(s), zero false positives (every verdict \
             re-proved by enumeration)@."
            found;
          exit 0
      | errs, _ ->
          List.iter
            (fun (label, e) -> Format.printf "FAIL %s: %s@." label e)
            errs;
          exit 1)
  | `Replay dir -> (
      let entries = Edge_fuzz.Corpus.load_dir dir in
      Format.printf "replaying %d corpus entries from %s@."
        (List.length entries) dir;
      let failed = ref 0 in
      List.iter
        (fun (name, src) ->
          match
            Edge_fuzz.Fuzz.replay_source ~cycle:!cycle ?machines:!machines
              ~validate:!validate ~check:!check ?max_vars:!max_vars ~name src
          with
          | Ok () -> ()
          | Error e ->
              incr failed;
              Format.printf "%s@." e)
        entries;
      if !failed = 0 then Format.printf "all corpus entries pass@.";
      exit (if !failed = 0 then 0 else 1))
  | `Fuzz ->
      let report =
        Edge_fuzz.Fuzz.run ~jobs:!jobs ~cycle:!cycle ?machines:!machines
          ~validate:!validate ~check:!check ?max_vars:!max_vars ?cache
          ~min_size:!min_size ~max_size:!max_size ~seed:!seed ~n:!n ()
      in
      Format.printf "%a" Edge_fuzz.Fuzz.pp_report report;
      (match (report.Edge_fuzz.Fuzz.failures, !corpus) with
      | [], _ -> ()
      | failures, corpus_dir ->
          List.iter
            (fun (f : Edge_fuzz.Fuzz.failure) ->
              let source =
                if !minimize then begin
                  Format.printf "minimizing seed=%d size=%d (%s)...@."
                    f.Edge_fuzz.Fuzz.seed f.Edge_fuzz.Fuzz.size
                    f.Edge_fuzz.Fuzz.config;
                  Edge_fuzz.Pretty.kernel_to_string
                    (Edge_fuzz.Fuzz.minimize_failure ~cycle:!cycle
                       ?machines:!machines ~validate:!validate ~check:!check
                       ?max_vars:!max_vars f)
                end
                else f.Edge_fuzz.Fuzz.source
              in
              Format.printf "--- reproducer seed=%d ---@.%s@."
                f.Edge_fuzz.Fuzz.seed source;
              match corpus_dir with
              | None -> ()
              | Some dir ->
                  let name =
                    Printf.sprintf "seed%d_%s" f.Edge_fuzz.Fuzz.seed
                      (String.lowercase_ascii f.Edge_fuzz.Fuzz.config)
                  in
                  let path =
                    Edge_fuzz.Corpus.save ~dir ~name ~contents:source
                  in
                  Format.printf "saved %s@." path;
                  (* dump the reproducer's cycle-sim trace alongside it
                     (Corpus.load_dir only picks up .k files, so the
                     .trace never affects replay) *)
                  (match Edge_lang.Parser.parse source with
                  | Error _ -> ()
                  | Ok ast -> (
                      match
                        Edge_fuzz.Oracle.trace_kernel
                          ~config:f.Edge_fuzz.Fuzz.config ast
                      with
                      | Ok trace ->
                          let tpath =
                            Filename.remove_extension path ^ ".trace"
                          in
                          let oc = open_out tpath in
                          output_string oc trace;
                          close_out oc;
                          Format.printf "saved %s@." tpath
                      | Error e ->
                          Format.printf "trace skipped: %s@." e)))
            failures);
      exit (if report.Edge_fuzz.Fuzz.failures = [] then 0 else 1)
