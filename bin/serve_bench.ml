(* serve_bench: throughput/latency benchmark and smoke battery for the
   dfpd job server.

   Bench mode (default) spawns a fresh dfpd.exe child per -j in
   {1,2,4}, each with its own empty cache directory, pings the socket
   so listener spin-up never pollutes the timings, then drives one
   single-stream cold pass and several warm passes and writes
   BENCH_serve.json. The cold pass is lock-step at concurrency 1 — a
   compile-bound latency number that must not get *worse* as workers
   are added. The warm offered load scales with server capacity: the
   -j1 row keeps the old protocol's lock-step round trips as the
   baseline (batch 1, pipeline depth 1), -jN drives 16*N-job batch
   frames with 4 frames in flight per connection ({"op":"batch"} +
   out-of-order completion), which is what the pipelined protocol
   exists for. Warm passes use a zero-allocation client — pre-rendered
   request frames, in-place response scanning over a raw fd, expected
   digests byte-compared in the buffer — so the numbers measure the
   server and the wire, not the client's JSON library. Each pass is a
   deterministic replay of the same frames; the best of 5 is reported
   per row, because on a shared host the variance between identical
   passes is neighbour noise, not signal.  The bench runs 3 times,
   alternating over the rows, and writes each row's per-field median:
   the cold pass is 8 jobs, and a single run spreads too widely for
   bench_compare's 20% warm gate.
   Each row records its threads/batch/depth so the methodology is in
   the data, and scaling_efficiency = warm_jobs_s(-jN) /
   warm_jobs_s(-j1). A final section precompiles every spec
   client-side, ships the images as pre-encoded block jobs to a fresh
   server, and requires byte-identical run_digests to the direct
   in-process runs.

   Scale-smoke mode (--scale-smoke, wired into `make check` as
   serve-scale-smoke) runs the -j1 and -j4 rows on a reduced spec set
   and fails unless warm -j4 >= 2x warm -j1 and cold -j4 >= 0.8x
   cold -j1 (cold is concurrency-1 and must be j-independent; the
   tolerance absorbs timer noise on a loaded host).

   Cross-cache mode (--cross-cache) points two dfpd processes at ONE
   shared --cache-dir: A populates it cold, a fresh B must answer the
   same jobs warm from disk with equal digests and zero decode
   errors, then both processes race an overlapping cold spec set into
   the directory concurrently — atomic tmp+rename stores mean neither
   may ever see a torn read.

   Smoke mode (--smoke, wired into `make check` as serve-smoke) runs a
   ~20-job mixed battery against a spawned server — cold and warm
   workload jobs, a source job, a traced job, a guaranteed timeout, a
   malformed request, bad config/workload names — then a clean
   shutdown, asserting structured errors (never a dead server), cold
   run_digests byte-identical to the direct in-process runs, a
   warm:cold ratio >= 10, and zero leaked sockets or cache temp
   files; it ends with the pre-encoded image check on its own specs.
   These are the host-independent flags of BENCH_serve.json
   ([identical], [preencoded.identical]), checked fresh. *)

module Client = Edge_serve.Client
module Json = Edge_serve.Json
module Experiment = Edge_harness.Experiment

(* spawned dfpd children still alive; [die] reaps them so a failed
   assertion can never leave an orphan server holding our pipes open *)
let live_children : int list ref = ref []

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("serve_bench: FAIL: " ^ s);
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_children;
      exit 1)
    fmt

(* -- child server -------------------------------------------------- *)

let dfpd_exe () =
  let candidate =
    Filename.concat (Filename.dirname Sys.executable_name) "dfpd.exe"
  in
  if Sys.file_exists candidate then candidate
  else die "cannot find dfpd.exe next to %s" Sys.executable_name

let spawn_server ~socket ~cache_dir ~j =
  let exe = dfpd_exe () in
  let args =
    [|
      exe; "--socket"; socket; "-j"; string_of_int j; "--cache-dir";
      cache_dir; "--quiet";
    |]
  in
  let pid = Unix.create_process exe args Unix.stdin Unix.stdout Unix.stderr in
  live_children := pid :: !live_children;
  pid

let shutdown_server ~socket pid =
  (match Client.connect_retry ~attempts:20 socket with
  | c ->
      (match Client.rpc c (Json.Obj [ ("op", Json.Str "shutdown") ]) with
      | Ok _ | Error _ -> ());
      Client.close c
  | exception _ -> ());
  let deadline = Unix.gettimeofday () +. 20. in
  live_children := List.filter (fun p -> p <> pid) !live_children;
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          die "server did not shut down within 20s"
        end
        else begin
          Thread.delay 0.02;
          wait ()
        end
    | _, Unix.WEXITED 0 -> ()
    | _, st ->
        die "server exited abnormally (%s)"
          (match st with
          | Unix.WEXITED n -> Printf.sprintf "exit %d" n
          | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
          | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n)
  in
  wait ()

let fresh_dir tag =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dfpd-%s-%d-%.0f" tag (Unix.getpid ())
         (Unix.gettimeofday () *. 1000.))
  in
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* one throwaway ping so listener spin-up, the first accept and the
   reader-thread start are paid before any timed pass begins *)
let ping_warmup ~socket =
  let c = Client.connect_retry socket in
  (match Client.rpc c (Json.Obj [ ("op", Json.Str "ping") ]) with
  | Ok _ -> ()
  | Error e -> die "warmup ping: %s" e);
  Client.close c

(* -- client passes ------------------------------------------------- *)

(* run every job in [jobs] through [threads] client connections in
   lock-step (thread k takes indices k, k+T, ...; one round trip per
   job); returns per-job (latency_s, terminal response) in submission
   order *)
let run_pass ~socket ~threads (jobs : (string * Json.t) list array) :
    (float * Json.t) array =
  let n = Array.length jobs in
  let out = Array.make n (0., Json.Null) in
  let worker k () =
    let c = Client.connect_retry socket in
    let i = ref k in
    while !i < n do
      let t0 = Unix.gettimeofday () in
      (match Client.run_job c jobs.(!i) with
      | Ok v -> out.(!i) <- (Unix.gettimeofday () -. t0, v)
      | Error e -> die "job %d: %s" !i e);
      i := !i + threads
    done;
    Client.close c
  in
  let ths = List.init (min threads n) (fun k -> Thread.create (worker k) ()) in
  List.iter Thread.join ths;
  out

let rec take n = function
  | [] -> ([], [])
  | l when n <= 0 -> ([], l)
  | x :: tl ->
      let a, b = take (n - 1) tl in
      (x :: a, b)

(* -- lean warm pass ------------------------------------------------ *)

(* The timed warm rows bypass the generic JSON client so the loop
   measures the server and the wire, not the bench's own encoder:
   request frames are rendered to strings before the clock starts and
   responses are verified by direct scans. The lock-step (batch=1)
   and pipelined rows share this exact path — only the framing
   differs — so their comparison is framing, nothing else. *)

(* patterns built once, outside the timed loops *)
let pat_done = "\"type\":\"done\""
let pat_accepted = "\"type\":\"accepted\""
let pat_id = "\"id\":\""
let pat_digest = "\"run_digest\":\""
let pat_warm = "\"warm\":true"

(* returns per-job latency in submission order; every response must be
   a warm done whose run_digest equals [expect i] (the pass is only
   run against a populated cache). Responses are scanned in place in
   the read buffer — no per-line string, no per-job allocation — so
   the timed loop is the server and the wire, nothing else. [depth]
   frames ride the connection at once (depth 1 = strict
   request/response): with a second frame already in the server's
   socket buffer, the server never idles waiting for the client's
   turnaround, which is the point of a pipelined protocol. Latency is
   completion minus the job's own frame's send time — queueing under
   the offered load included. *)
let run_pass_lean ~socket ~threads ~batch ~depth ~(expect : int -> string)
    (jobs : (string * Json.t) list array) : float array =
  let n = Array.length jobs in
  let lat = Array.make n 0. in
  let t0s = Array.make n 0. in
  let job i = Json.Obj (("id", Json.Str (string_of_int i)) :: jobs.(i)) in
  let worker k () =
    let c = Client.connect_retry socket in
    let fd = c.Client.fd in
    let mine = List.filter (fun i -> i mod threads = k) (List.init n Fun.id) in
    (* all frames rendered up front, outside the timed region *)
    let frames =
      let frame v = Bytes.of_string (Json.to_string v ^ "\n") in
      if batch = 1 then List.map (fun i -> (frame (job i), [ i ])) mine
      else
        let rec chunks = function
          | [] -> []
          | l ->
              let is, rest = take batch l in
              ( frame
                  (Json.Obj
                     [
                       ("op", Json.Str "batch");
                       ("jobs", Json.Arr (List.map job is));
                     ]),
                is )
              :: chunks rest
        in
        chunks mine
    in
    let write_all b =
      let len = Bytes.length b in
      let rec go off =
        if off < len then
          match Unix.write fd b off (len - off) with
          | w -> go (off + w)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      in
      go 0
    in
    let buf = Bytes.create 65536 in
    let blen = ref 0 and bpos = ref 0 in
    let refill () =
      if !bpos > 0 then begin
        Bytes.blit buf !bpos buf 0 (!blen - !bpos);
        blen := !blen - !bpos;
        bpos := 0
      end;
      match Unix.read fd buf !blen (Bytes.length buf - !blen) with
      | 0 -> die "lean pass: connection closed mid-frame"
      | r -> blen := !blen + r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    in
    (* in-place helpers over buf[a,b) *)
    let find_pat a b (pat : string) =
      let plen = String.length pat in
      let rec matches i j =
        j >= plen
        || (Bytes.unsafe_get buf (i + j) = String.unsafe_get pat j
            && matches i (j + 1))
      in
      let rec go i =
        if i + plen > b then -1 else if matches i 0 then i else go (i + 1)
      in
      go a
    in
    let line_str a b = Bytes.sub_string buf a (b - a) in
    let process_line a b =
      if find_pat a b pat_done < 0 then begin
        if find_pat a b pat_accepted < 0 then
          die "lean pass: unexpected response: %s" (line_str a b);
        false
      end
      else begin
        if find_pat a b pat_warm < 0 then
          die "lean pass: cold response in a warm pass: %s" (line_str a b);
        let i =
          match find_pat a b pat_id with
          | -1 -> die "lean pass: done response without id: %s" (line_str a b)
          | p ->
              let rec digits j acc =
                match Bytes.unsafe_get buf j with
                | '0' .. '9' as ch ->
                    digits (j + 1) ((acc * 10) + Char.code ch - Char.code '0')
                | _ -> acc
              in
              digits (p + String.length pat_id) 0
        in
        (match find_pat a b pat_digest with
        | -1 ->
            die "lean pass: done response without digest: %s" (line_str a b)
        | p ->
            let d = expect i in
            let off = p + String.length pat_digest in
            let dlen = String.length d in
            let same =
              off + dlen <= b
              && Bytes.unsafe_get buf (off + dlen) = '"'
              &&
              let rec eq j =
                j >= dlen
                || (Bytes.unsafe_get buf (off + j) = String.unsafe_get d j
                    && eq (j + 1))
              in
              eq 0
            in
            if not same then
              die "lean pass: run_digest mismatch for job %d: %s" i
                (line_str a b));
        lat.(i) <- Unix.gettimeofday () -. t0s.(i);
        true
      end
    in
    (* block until one more done line has been processed *)
    let rec consume_one () =
      let rec nl i =
        if i >= !blen then -1
        else if Bytes.unsafe_get buf i = '\n' then i
        else nl (i + 1)
      in
      match nl !bpos with
      | -1 ->
          refill ();
          consume_one ()
      | e ->
          let was_done = process_line !bpos e in
          bpos := e + 1;
          if not was_done then consume_one ()
    in
    let pending = ref 0 in
    List.iter
      (fun (frame, is) ->
        (* at most [depth] frames in flight *)
        while !pending > (depth - 1) * batch do
          consume_one ();
          decr pending
        done;
        let t0 = Unix.gettimeofday () in
        List.iter (fun i -> t0s.(i) <- t0) is;
        write_all frame;
        pending := !pending + List.length is)
      frames;
    while !pending > 0 do
      consume_one ();
      decr pending
    done;
    Client.close c
  in
  let ths = List.init (min threads n) (fun k -> Thread.create (worker k) ()) in
  List.iter Thread.join ths;
  lat

let field_exn v name =
  match Json.member name v with
  | Some f -> f
  | None -> die "response %s is missing %S" (Json.to_string v) name

let str_exn v name =
  match Json.str v with
  | Some s -> s
  | None -> die "%S is not a string in %s" name (Json.to_string v)

let rtype v = Option.value (Json.str_member "type" v) ~default:"?"

let expect_done v =
  if rtype v <> "done" then
    die "expected done, got %s" (Json.to_string v);
  v

let digest_of v = str_exn (field_exn v "run_digest") "run_digest"

let is_warm v = Json.bool_member "warm" v = Some true

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

let server_stats ~socket =
  let c = Client.connect_retry socket in
  let stats =
    match Client.rpc c (Json.Obj [ ("op", Json.Str "stats") ]) with
    | Ok v -> v
    | Error e -> die "stats: %s" e
  in
  Client.close c;
  stats

let counter stats name = Option.value (Json.int_member name stats) ~default:0

(* -- the job mix --------------------------------------------------- *)

let bench_workloads = [ "tblook01"; "cacheb01"; "pntrch01"; "ttsprk01" ]
let bench_configs = [ "Hyper"; "Both" ]

let specs workloads =
  List.concat_map
    (fun w ->
      List.map (fun c -> (w, c)) bench_configs)
    workloads

let job_of_spec (w, c) = Client.workload_job ~workload:w ~config:c ()

(* digest of a direct, server-free run of the same job — ground truth
   for the byte-identical check *)
let direct_digest (w, c) =
  let workload =
    match Edge_workloads.Registry.find w with
    | Some wl -> wl
    | None -> die "workload %s missing from registry" w
  in
  let config =
    match Edge_serve.Server.find_config c with
    | Some cfg -> cfg
    | None -> die "config %s unknown" c
  in
  match Experiment.run_one workload (c, config) with
  | Ok r -> (Edge_serve.Server.run_digest r, r.Experiment.ret)
  | Error e -> die "direct run %s/%s failed: %s" w c e

(* -- bench mode ---------------------------------------------------- *)

type row = {
  j : int;
  threads : int;
  batch : int;
  depth : int;
  cold_jobs_s : float;
  warm_jobs_s : float;
  warm_p50_ms : float;
  warm_p99_ms : float;
  ratio : float;
  cache_hits : int;
  cache_misses : int;
  fast_hits : int;
}

(* warm offered load scales with server capacity: the -j1 row keeps
   the old protocol's only mode — one connection, strict lock-step
   round trips — as the baseline, and -jN drives 16*N-job batch
   frames with two frames riding the connection at once. Each row
   records its threads/batch/depth, so the load model is part of the
   data. *)
let warm_batch j = if j = 1 then 1 else 16 * j
let warm_depth j = if j = 1 then 1 else 4
let warm_threads _ = 1

(* enough warm jobs per pass that each timed pass runs for tens of
   milliseconds — whole frames per thread, and a floor big enough that
   scheduler wakeup jitter (client and server ping-pong across one
   core) averages out instead of dominating a single short pass *)
let warm_volume ~threads ~batch = max (threads * batch) 2048

(* timed warm passes per row; the row reports the best *)
let warm_passes = 5

let bench_one ~j specs =
  let cache_dir = fresh_dir (Printf.sprintf "bench%d" j) in
  let socket = Filename.concat cache_dir "dfpd.sock" in
  let pid = spawn_server ~socket ~cache_dir ~j in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists cache_dir then rm_rf cache_dir)
    (fun () ->
      let jobs = Array.of_list (List.map job_of_spec specs) in
      let n = Array.length jobs in
      ping_warmup ~socket;
      (* cold: single-stream lock-step. Compile-bound latency with one
         job in the server at a time — by construction it cannot
         improve with -j, and it must not get worse (idle workers are
         parked in condvars, not spinning) *)
      let t0 = Unix.gettimeofday () in
      let cold = run_pass ~socket ~threads:1 jobs in
      let cold_wall = Unix.gettimeofday () -. t0 in
      let cold_digests =
        Array.map (fun (_, v) -> digest_of (expect_done v)) cold
      in
      let threads = warm_threads j in
      let batch = warm_batch j in
      let depth = warm_depth j in
      let volume = warm_volume ~threads ~batch in
      let warm_jobs = Array.init volume (fun i -> jobs.(i mod n)) in
      (* each warm pass is timed separately and the row reports the
         best one (identically for every row): the passes are
         deterministic replays, so their variance is host noise —
         other tenants, not the server under test *)
      let warm_lat = ref [] in
      let best = ref 0. in
      for _ = 1 to warm_passes do
        let t1 = Unix.gettimeofday () in
        let warm =
          run_pass_lean ~socket ~threads ~batch ~depth
            ~expect:(fun i -> cold_digests.(i mod n))
            warm_jobs
        in
        let pass_jobs_s =
          float_of_int volume /. (Unix.gettimeofday () -. t1)
        in
        if pass_jobs_s > !best then best := pass_jobs_s;
        Array.iter (fun lat -> warm_lat := lat :: !warm_lat) warm
      done;
      let stats = server_stats ~socket in
      shutdown_server ~socket pid;
      let lat = Array.of_list !warm_lat in
      Array.sort compare lat;
      ( {
          j;
          threads;
          batch;
          depth;
          cold_jobs_s = float_of_int n /. cold_wall;
          warm_jobs_s = !best;
          warm_p50_ms = percentile lat 0.5 *. 1000.;
          warm_p99_ms = percentile lat 0.99 *. 1000.;
          ratio = !best /. (float_of_int n /. cold_wall);
          cache_hits = counter stats "cache_hits";
          cache_misses = counter stats "cache_misses";
          fast_hits = counter stats "fast_hits";
        },
        cold_digests ))

(* -- pre-encoded block jobs ---------------------------------------- *)

(* compile every spec client-side, ship the artifacts as image jobs to
   a fresh server, and require byte-identical run_digests to the
   direct runs — cold (full verification battery against the workload
   reference) and again warm (the image's own fast-path entry) *)
let preencoded_check specs (direct : (string * int64) list) =
  let cache_dir = fresh_dir "preenc" in
  let socket = Filename.concat cache_dir "dfpd.sock" in
  let pid = spawn_server ~socket ~cache_dir ~j:2 in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists cache_dir then rm_rf cache_dir)
    (fun () ->
      ping_warmup ~socket;
      let c = Client.connect_retry socket in
      let ok =
        List.for_all2
          (fun (w, cfg) (d, _) ->
            let image =
              match Client.precompile ~workload:w ~config:cfg () with
              | Ok img -> img
              | Error e -> die "precompile %s/%s: %s" w cfg e
            in
            let job = Client.image_job ~workload:w ~config:cfg ~image () in
            let cold =
              match Client.run_job c job with
              | Ok v -> expect_done v
              | Error e -> die "image job %s/%s: %s" w cfg e
            in
            let warm =
              match Client.run_job c job with
              | Ok v -> expect_done v
              | Error e -> die "image job (warm) %s/%s: %s" w cfg e
            in
            if not (is_warm warm) then
              die "image job %s/%s missed the warm fast path on resubmit" w
                cfg;
            digest_of cold = d && digest_of warm = d)
          specs direct
      in
      Client.close c;
      shutdown_server ~socket pid;
      ok)

let host_cores = Domain.recommended_domain_count ()

let bench_json specs rows ~identical ~preencoded_ok =
  let base_warm =
    match rows with r :: _ -> r.warm_jobs_s | [] -> die "no bench rows"
  in
  let int i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("experiment", Json.Str "serve");
      ("protocol", Json.Str Edge_serve.Proto.protocol);
      ("identical", Json.Bool identical);
      ("host_cores", int host_cores);
      ( "specs",
        Json.Arr (List.map (fun (w, c) -> Json.Str (w ^ "/" ^ c)) specs) );
      ( "rows",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("j", int r.j);
                   ("threads", int r.threads);
                   ("batch", int r.batch);
                   ("depth", int r.depth);
                   ("cold_jobs_s", Json.fixed 1 r.cold_jobs_s);
                   ("warm_jobs_s", Json.fixed 1 r.warm_jobs_s);
                   ("warm_p50_ms", Json.fixed 3 r.warm_p50_ms);
                   ("warm_p99_ms", Json.fixed 3 r.warm_p99_ms);
                   ("warm_cold_ratio", Json.fixed 1 r.ratio);
                   ( "scaling_efficiency",
                     Json.fixed 2 (r.warm_jobs_s /. base_warm) );
                   ("cache_hits", int r.cache_hits);
                   ("cache_misses", int r.cache_misses);
                   ("fast_hits", int r.fast_hits);
                 ])
             rows) );
      ( "preencoded",
        Json.Obj
          [
            ("jobs", int (List.length specs));
            ("identical", Json.Bool preencoded_ok);
          ] );
    ]

(* runs per bench: each figure the file records is the median of its
   row's runs, the form BENCH_serve.json is kept in, so one fresh bench
   compares like with like under bench_compare's warm gate *)
let bench_runs = 3

(* the per-field median of one row's runs *)
let median_row = function
  | [] -> die "no bench runs"
  | r :: _ as runs ->
      let med f =
        let a = Array.of_list (List.map f runs) in
        Array.sort compare a;
        percentile a 0.5
      in
      let medi f = int_of_float (med (fun r -> float_of_int (f r))) in
      {
        r with
        cold_jobs_s = med (fun r -> r.cold_jobs_s);
        warm_jobs_s = med (fun r -> r.warm_jobs_s);
        warm_p50_ms = med (fun r -> r.warm_p50_ms);
        warm_p99_ms = med (fun r -> r.warm_p99_ms);
        ratio = med (fun r -> r.ratio);
        cache_hits = medi (fun r -> r.cache_hits);
        cache_misses = medi (fun r -> r.cache_misses);
        fast_hits = medi (fun r -> r.fast_hits);
      }

let run_bench ~out =
  let specs = specs bench_workloads in
  let js = [ 1; 2; 4 ] in
  (* the runs alternate over the rows, so a slow spell of the host
     spreads over all three *)
  let results =
    List.concat
      (List.init bench_runs (fun _ ->
           List.map (fun j -> bench_one ~j specs) js))
  in
  (* ground truth after the timed passes; the servers are child
     processes, so nothing this process computes warms them *)
  let direct = List.map direct_digest specs in
  let identical =
    List.for_all
      (fun (_, cold_digests) ->
        List.for_all2
          (fun (d, _) i -> d = cold_digests.(i))
          direct
          (List.init (List.length direct) Fun.id))
      results
  in
  let preencoded_ok = preencoded_check specs direct in
  let rows =
    List.map
      (fun j ->
        median_row (List.filter (fun r -> r.j = j) (List.map fst results)))
      js
  in
  let base_warm = (List.hd rows).warm_jobs_s in
  List.iter
    (fun r ->
      Printf.printf
        "serve -j%d (x%d threads, batch %d): cold %6.1f jobs/s, warm %8.1f \
         jobs/s (%.0fx cold, %.2fx -j1), p50 %.3f ms, p99 %.3f ms\n"
        r.j r.threads r.batch r.cold_jobs_s r.warm_jobs_s r.ratio
        (r.warm_jobs_s /. base_warm)
        r.warm_p50_ms r.warm_p99_ms)
    rows;
  Printf.printf "identical to direct run_one: %b\n" identical;
  Printf.printf "pre-encoded image jobs identical: %b\n" preencoded_ok;
  let oc = open_out out in
  output_string oc
    (Json.pretty (bench_json specs rows ~identical ~preencoded_ok));
  close_out oc;
  Printf.printf "wrote %s\n" out;
  if not identical then die "server results diverge from direct runs";
  if not preencoded_ok then
    die "pre-encoded image jobs diverge from direct runs";
  if List.exists (fun r -> r.ratio < 10.) rows then
    die "warm throughput below 10x cold";
  let last = List.nth rows (List.length rows - 1) in
  if last.warm_jobs_s < 2.5 *. base_warm then
    die "pipelined warm throughput only %.2fx the -j1 lock-step baseline"
      (last.warm_jobs_s /. base_warm)

(* -- scale-smoke mode ---------------------------------------------- *)

(* a cold pass is a handful of compile-bound jobs, so one pass per
   server is dominated by host noise. Each server's cold pass is
   therefore the eight-job bench mix, fresh -j1 and -j4 servers
   alternate for [scale_rounds] rounds, and each bound applies to the
   median of the per-round -j4/-j1 ratios: a round's two servers run
   back to back and share the host's load, which the pairing cancels. *)
let scale_rounds = 5

let run_scale_smoke () =
  let specs = specs bench_workloads in
  let rounds =
    List.init scale_rounds (fun i ->
        let r1, _ = bench_one ~j:1 specs in
        let r4, _ = bench_one ~j:4 specs in
        Printf.printf
          "  round %d: warm %.0f -> %.0f jobs/s, cold %.1f -> %.1f jobs/s\n%!"
          (i + 1) r1.warm_jobs_s r4.warm_jobs_s r1.cold_jobs_s r4.cold_jobs_s;
        (r1, r4))
  in
  let median_ratio f =
    let a = Array.of_list (List.map (fun (r1, r4) -> f r4 /. f r1) rounds) in
    Array.sort compare a;
    percentile a 0.5
  in
  let warm = median_ratio (fun r -> r.warm_jobs_s)
  and cold = median_ratio (fun r -> r.cold_jobs_s) in
  Printf.printf
    "serve-scale-smoke: median -j4/-j1 over %d rounds: warm %.2fx (batch %d \
     vs lock-step), cold %.2fx\n"
    scale_rounds warm (warm_batch 4) cold;
  if warm < 2. then
    die "pipelined warm throughput only %.2fx the lock-step baseline (need \
         >= 2x)"
      warm;
  (* cold is concurrency-1 and therefore j-independent; the tolerance
     absorbs timer/GC noise on a handful of compile-bound jobs, not a
     real regression (the idle-worker GC tax this guards against was a
     reproducible 30-40% drop) *)
  if cold < 0.8 then
    die "cold throughput fell to %.2fx going -j1 -> -j4 (need >= 0.8x)" cold;
  print_endline "serve-scale-smoke: OK"

(* -- cross-cache mode ---------------------------------------------- *)

let count_tmp_files dir =
  let n = ref 0 in
  let rec walk d =
    match Sys.readdir d with
    | exception Sys_error _ -> ()
    | names ->
        Array.iter
          (fun name ->
            let p = Filename.concat d name in
            if Sys.is_directory p then walk p
            else
              let rec has_tmp i =
                i + 5 <= String.length name
                && (String.sub name i 5 = ".tmp." || has_tmp (i + 1))
              in
              if has_tmp 0 then incr n)
          names
  in
  walk dir;
  !n

(* two dfpd processes sharing one --cache-dir: A populates it cold, a
   fresh B answers the same jobs warm from A's on-disk entries, then
   both race an overlapping cold spec set into the directory at once.
   Atomic tmp+rename stores and digest-checked reads mean zero decode
   errors and no torn reads in any phase. *)
let run_cross_cache () =
  let shared = specs bench_workloads in
  let jobs = Array.of_list (List.map job_of_spec shared) in
  let n = Array.length jobs in
  let cache_dir = fresh_dir "xcache" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists cache_dir then rm_rf cache_dir)
    (fun () ->
      (* phase 1: A fills the shared cache cold *)
      let sock_a = Filename.concat cache_dir "a.sock" in
      let pid_a = spawn_server ~socket:sock_a ~cache_dir ~j:2 in
      ping_warmup ~socket:sock_a;
      let t0 = Unix.gettimeofday () in
      let cold = run_pass ~socket:sock_a ~threads:2 jobs in
      let cold_wall = Unix.gettimeofday () -. t0 in
      let digests = Array.map (fun (_, v) -> digest_of (expect_done v)) cold in
      let st_a = server_stats ~socket:sock_a in
      if counter st_a "cache_errors" <> 0 then
        die "process A saw %d cache decode errors"
          (counter st_a "cache_errors");
      (* every entry A answered is already on disk: a job's cache
         store completes before its done line is sent *)
      shutdown_server ~socket:sock_a pid_a;
      (* phase 2: a fresh B must answer warm from A's entries *)
      let sock_b = Filename.concat cache_dir "b.sock" in
      let pid_b = spawn_server ~socket:sock_b ~cache_dir ~j:2 in
      ping_warmup ~socket:sock_b;
      let t1 = Unix.gettimeofday () in
      let warm = run_pass ~socket:sock_b ~threads:2 jobs in
      let warm_wall = Unix.gettimeofday () -. t1 in
      Array.iteri
        (fun i (_, v) ->
          let v = expect_done v in
          if not (is_warm v) then
            die "cross-cache: job %d missed A's disk entry in process B" i;
          if digest_of v <> digests.(i) then
            die "cross-cache: process B digest differs for job %d" i)
        warm;
      let st_b = server_stats ~socket:sock_b in
      if counter st_b "cache_errors" <> 0 then
        die "process B saw %d cache decode errors"
          (counter st_b "cache_errors");
      if counter st_b "cache_misses" <> 0 then
        die "process B missed the shared cache %d times"
          (counter st_b "cache_misses");
      let speedup = cold_wall /. warm_wall in
      if speedup < 5. then
        die "cross-process warm hits only %.1fx faster than A's cold pass"
          speedup;
      (* phase 3: A2 and B race the same fresh specs into the shared
         directory concurrently — both miss, both compute, both store
         the same keys; tmp+rename must keep every read clean *)
      let fresh_specs =
        List.concat_map
          (fun w -> [ (w, "Intra"); (w, "Inter") ])
          [ "tblook01"; "cacheb01" ]
      in
      let fresh_jobs = Array.of_list (List.map job_of_spec fresh_specs) in
      let sock_a2 = Filename.concat cache_dir "a2.sock" in
      let pid_a2 = spawn_server ~socket:sock_a2 ~cache_dir ~j:2 in
      ping_warmup ~socket:sock_a2;
      let res_a = ref [||] and res_b = ref [||] in
      let tha =
        Thread.create
          (fun () -> res_a := run_pass ~socket:sock_a2 ~threads:2 fresh_jobs)
          ()
      in
      let thb =
        Thread.create
          (fun () -> res_b := run_pass ~socket:sock_b ~threads:2 fresh_jobs)
          ()
      in
      Thread.join tha;
      Thread.join thb;
      Array.iteri
        (fun i (_, va) ->
          let da = digest_of (expect_done va) in
          let db = digest_of (expect_done (snd !res_b.(i))) in
          if da <> db then
            die "concurrent phase: digests diverge for job %d (%s vs %s)" i
              da db)
        !res_a;
      List.iter
        (fun (name, sock) ->
          let st = server_stats ~socket:sock in
          if counter st "cache_errors" <> 0 then
            die "concurrent phase: process %s saw %d cache decode errors"
              name
              (counter st "cache_errors"))
        [ ("A2", sock_a2); ("B", sock_b) ];
      shutdown_server ~socket:sock_a2 pid_a2;
      shutdown_server ~socket:sock_b pid_b;
      let tmp = count_tmp_files cache_dir in
      if tmp <> 0 then die "%d cache temp file(s) leaked" tmp;
      Printf.printf
        "cross-cache: OK (%d shared jobs: A cold %.2fs, B warm %.2fs = \
         %.0fx; %d-job concurrent phase clean; no torn reads, no leaks)\n"
        n cold_wall warm_wall speedup
        (Array.length fresh_jobs))

(* -- smoke mode ---------------------------------------------------- *)

let spin_kernel =
  "kernel serve_spin(int x, int y, int* A, int* B) {\n\
  \  int s = 0;\n\
  \  while (x > 0) { s = s + 1; }\n\
  \  return s;\n\
   }\n"

let sum_kernel =
  "kernel serve_sum(int x, int y, int* A, int* B) {\n\
  \  int s = 0;\n\
  \  int i;\n\
  \  for (i = 0; i < 8; i = i + 1) { s = s + A[i]; }\n\
  \  return s + x + y;\n\
   }\n"

let run_smoke () =
  let smoke_specs = specs [ "tblook01"; "cacheb01" ] in
  let cache_dir = fresh_dir "smoke" in
  let socket = Filename.concat cache_dir "dfpd.sock" in
  let pid = spawn_server ~socket ~cache_dir ~j:2 in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists cache_dir then rm_rf cache_dir)
    (fun () ->
      let jobs = Array.of_list (List.map job_of_spec smoke_specs) in
      (* 4 cold jobs *)
      let t0 = Unix.gettimeofday () in
      let cold = run_pass ~socket ~threads:4 jobs in
      let cold_wall = Unix.gettimeofday () -. t0 in
      Array.iter (fun (_, v) -> ignore (expect_done v)) cold;
      (* the served results must be the direct in-process runs' *)
      let direct = List.map direct_digest smoke_specs in
      List.iteri
        (fun i (d, _) ->
          if digest_of (snd cold.(i)) <> d then
            die "cold job %d differs from its direct run" i)
        direct;
      (* 8 warm jobs, byte-identical to the cold ones: one lock-step
         pass, checked here, and one batched frame, which
         run_pass_lean checks itself *)
      let cold_digest i = digest_of (snd cold.(i)) in
      let t1 = Unix.gettimeofday () in
      let warm = run_pass ~socket ~threads:4 jobs in
      ignore
        (run_pass_lean ~socket ~threads:1 ~batch:4 ~depth:1 ~expect:cold_digest
           jobs);
      let warm_wall = Unix.gettimeofday () -. t1 in
      Array.iteri
        (fun i (_, v) ->
          let v = expect_done v in
          if not (is_warm v) then die "warm job %d missed the cache" i;
          if digest_of v <> cold_digest i then
            die "warm digest differs from cold for job %d" i)
        warm;
      (* warm jobs/s over cold jobs/s: each job ran cold once, warm twice *)
      let ratio = 2. *. cold_wall /. warm_wall in
      if ratio < 10. then
        die "warm throughput only %.1fx cold (need >= 10x)" ratio;
      let c = Client.connect_retry socket in
      (* job 13: a source kernel with a known answer *)
      (match
         Client.run_job c (Client.source_job ~source:sum_kernel ~config:"Both" ())
       with
      | Ok v ->
          let v = expect_done v in
          let expected =
            (* sum of A[i] = i*37-90 for i<8, plus x+y = 7-3 *)
            Int64.to_string (Int64.of_int ((37 * 28) - (90 * 8) + 4))
          in
          if Json.str_member "ret" v <> Some expected then
            die "source job returned %s, expected %s" (Json.to_string v)
              expected
      | Error e -> die "source job: %s" e);
      (* job 14: same kernel traced — must stream events and metrics *)
      let traces = ref 0 and metrics = ref 0 in
      (match
         Client.run_job c
           ~on_stream:(fun v ->
             match rtype v with
             | "trace" -> incr traces
             | "metrics" -> incr metrics
             | _ -> ())
           (Client.source_job ~trace:true ~source:sum_kernel ~config:"Both" ())
       with
      | Ok v -> ignore (expect_done v)
      | Error e -> die "trace job: %s" e);
      if !traces = 0 then die "traced job streamed no trace lines";
      if !metrics = 0 then die "traced job sent no metrics";
      (* job 15: guaranteed timeout (non-terminating kernel, tiny fuel) *)
      (match
         Client.run_job c
           (Client.source_job ~fuel:10_000 ~max_cycles:100_000
              ~source:spin_kernel ~config:"Both" ())
       with
      | Ok v ->
          if rtype v <> "error" || Json.str_member "reason" v <> Some "timeout"
          then die "spin kernel should time out, got %s" (Json.to_string v)
      | Error e -> die "timeout job: %s" e);
      (* job 16: malformed request — structured error, server survives *)
      Client.send_line c "this is not json at all {";
      (match Client.recv c with
      | Some (Ok v)
        when rtype v = "error" && Json.str_member "reason" v = Some "protocol"
        ->
          ()
      | other ->
          die "malformed line: expected a protocol error, got %s"
            (match other with
            | Some (Ok v) -> Json.to_string v
            | Some (Error e) -> e
            | None -> "EOF"));
      (match Client.rpc c (Json.Obj [ ("op", Json.Str "ping") ]) with
      | Ok v when rtype v = "pong" -> ()
      | _ -> die "server did not answer ping after a malformed request");
      (* jobs 17/18: unknown workload / config — structured errors *)
      (match
         Client.run_job c (Client.workload_job ~workload:"nope" ~config:"Both" ())
       with
      | Ok v when rtype v = "error" && Json.str_member "reason" v = Some "config"
        ->
          ()
      | other ->
          die "unknown workload: expected config error, got %s"
            (match other with Ok v -> Json.to_string v | Error e -> e));
      (match
         Client.run_job c
           (Client.workload_job ~workload:"tblook01" ~config:"NoSuch" ())
       with
      | Ok v when rtype v = "error" && Json.str_member "reason" v = Some "config"
        ->
          ()
      | other ->
          die "unknown config: expected config error, got %s"
            (match other with Ok v -> Json.to_string v | Error e -> e));
      Client.close c;
      (* clean shutdown: no socket, no temp files, cache still populated *)
      shutdown_server ~socket pid;
      if Sys.file_exists socket then die "socket file leaked";
      let tmp = count_tmp_files cache_dir in
      if tmp <> 0 then die "%d cache temp file(s) leaked" tmp;
      if not (preencoded_check smoke_specs direct) then
        die "pre-encoded image jobs diverge from direct runs";
      Printf.printf
        "serve-smoke: OK (cold %.2fs, warm %.2fs, %.0fx; 20 requests incl. \
         timeout + malformed; cold and pre-encoded jobs identical to direct \
         runs; no leaks)\n"
        cold_wall warm_wall ratio)

let () =
  let smoke = ref false in
  let scale_smoke = ref false in
  let cross_cache = ref false in
  let out = ref "BENCH_serve.json" in
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " run the serve-smoke battery");
      ( "--scale-smoke",
        Arg.Set scale_smoke,
        " assert pipelined warm throughput scales over the lock-step \
         baseline" );
      ( "--cross-cache",
        Arg.Set cross_cache,
        " two processes sharing one cache dir: warm hits, no torn reads" );
      ( "--out",
        Arg.Set_string out,
        "FILE bench output, per-row medians of 3 runs (default \
         BENCH_serve.json)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "serve_bench [--smoke|--scale-smoke|--cross-cache] [--out FILE]";
  if !smoke then run_smoke ()
  else if !scale_smoke then run_scale_smoke ()
  else if !cross_cache then run_cross_cache ()
  else run_bench ~out:!out
