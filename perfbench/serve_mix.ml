(* serve-mix: one closed-loop client against a spawned `dfpd.exe -j 1`
   with its in-memory cache on and a disk cache in a fresh directory.

   The request order is fixed by the seed.  Requests come in blocks of
   50: one cold source job (a fresh generated kernel whose return value
   the client computed in set-up), an invalid request in every other
   block (a malformed line, an unknown workload or an unknown config,
   in turn, each with its expected typed reason), and warm repeats of a
   fixed set of registry jobs filled in set-up, each of which must
   carry the run digest of its fill.  Every job uses the server's
   default machine, so this workload never runs the in-order backend.

   The server binary is the one built next to this executable; its
   socket and cache live in a directory under the working directory,
   removed on every exit path together with the server process. *)

module Client = Edge_serve.Client
module Json = Edge_serve.Json
module Oracle = Edge_fuzz.Oracle
module Gen = Edge_fuzz.Gen

let block = 50

let warm_jobs =
  List.concat_map
    (fun w -> [ (w, "Hyper"); (w, "Both") ])
    [ "a2time01"; "bitmnp01"; "cacheb01"; "canrdr01"; "pntrch01"; "tblook01"; "ttsprk01"; "viterb00" ]

type fill = { digest : string; ret : string }

type invalid = Malformed | Unknown_workload | Unknown_config

type request = Warm of int | Cold of int | Invalid of invalid

(* -- the server process ---------------------------------------------- *)

let live : (int * string) list ref = ref []

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let reap pid =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let tmp_root = ".perfbench-tmp"

let kill_all () =
  List.iter
    (fun (pid, dir) ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      reap pid;
      rm_rf dir)
    !live;
  live := [];
  try Unix.rmdir tmp_root with Unix.Unix_error _ -> ()

let () =
  at_exit kill_all;
  let stop _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop)

let dfpd_exe () =
  Filename.concat
    (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin")
    "dfpd.exe"

type server = { pid : int; dir : string; socket : string }

let start_server k =
  (try Unix.mkdir tmp_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat tmp_root (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) k) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "dfpd.sock" in
  let exe = dfpd_exe () in
  let args =
    [| exe; "--socket"; socket; "-j"; "1"; "--cache-dir"; Filename.concat dir "cache"; "--quiet" |]
  in
  let pid = Unix.create_process exe args Unix.stdin Unix.stderr Unix.stderr in
  live := (pid, dir) :: !live;
  { pid; dir; socket }

let stop_server s =
  (match Client.connect_retry ~attempts:20 s.socket with
  | c ->
      ignore (Client.rpc c (Json.Obj [ ("op", Json.Str "shutdown") ]));
      Client.close c
  | exception _ -> ());
  reap s.pid;
  rm_rf s.dir;
  live := List.filter (fun (p, _) -> p <> s.pid) !live;
  try Unix.rmdir tmp_root with Unix.Unix_error _ -> ()

let stats c =
  match Client.rpc c (Json.Obj [ ("op", Json.Str "stats") ]) with
  | Ok v -> v
  | Error e -> failwith ("stats: " ^ e)

(* -- set-up ------------------------------------------------------------ *)

type state = {
  server : server;
  client : Client.t;
  fills : fill array;
  colds : (string * string) array;  (** source, reference return value *)
  requests : request array;
}

(* [n] distinct generated kernels the reference interpreter runs to
   completion without a fault, with their reference return values *)
let cold_kernels ~seed n =
  let seen = Hashtbl.create n in
  let rec collect acc i =
    if List.length acc = n then Array.of_list (List.rev acc)
    else
      let src =
        Edge_fuzz.Pretty.kernel_to_string
          (Gen.generate ~seed:(seed + i) ~size:(Gen.size_for ~min_size:6 ~max_size:45 i))
      in
      let reference =
        match Edge_lang.Parser.parse src with
        | Error _ -> None
        | Ok ast -> (
            match Oracle.run_reference ast with
            | Ok o when not o.Oracle.fault -> Some (Int64.to_string o.Oracle.ret)
            | Ok _ | Error _ -> None
            | exception Oracle.Skip -> None)
      in
      match reference with
      | Some r when not (Hashtbl.mem seen src) ->
          Hashtbl.add seen src ();
          collect ((src, r) :: acc) (i + 1)
      | _ -> collect acc (i + 1)
  in
  collect [] 0

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let schedule ~seed ~n_cold =
  let st = Random.State.make [| seed; 0x5e7e |] in
  let n_warm = List.length warm_jobs in
  let invalid = [| Malformed; Unknown_workload; Unknown_config |] in
  Array.concat
    (List.init n_cold (fun b ->
         let a =
           Array.init block (fun i ->
               if i = 0 then Cold b
               else if i = 1 && b mod 2 = 0 then Invalid invalid.(b / 2 mod 3)
               else Warm (Random.State.int st n_warm))
         in
         shuffle st a;
         a))

let field k v = Json.str_member k v |> Option.value ~default:""

let setup ~seed ~n_cold k =
  let server = start_server k in
  let client = Client.connect_retry ~attempts:200 server.socket in
  (match Client.rpc client (Json.Obj [ ("op", Json.Str "ping") ]) with
  | Ok _ -> ()
  | Error e -> failwith ("ping: " ^ e));
  let fills =
    Array.of_list
      (List.map
         (fun (w, c) ->
           match Client.run_job client (Client.workload_job ~workload:w ~config:c ()) with
           | Ok v when field "type" v = "done" ->
               { digest = field "run_digest" v; ret = field "ret" v }
           | Ok v -> failwith (Printf.sprintf "fill %s/%s: %s" w c (Json.to_string v))
           | Error e -> failwith (Printf.sprintf "fill %s/%s: %s" w c e))
         warm_jobs)
  in
  let colds = cold_kernels ~seed n_cold in
  let state = { server; client; fills; colds; requests = schedule ~seed ~n_cold } in
  ( state,
    fun () ->
      Client.close client;
      stop_server server )

(* -- the timed loop ---------------------------------------------------- *)

type sample = {
  req : request;
  latency : float;  (** seconds *)
  accept : float;  (** seconds to the "accepted" line; jobs only *)
  compile_s : float;
  sim_s : float;
  cycles : float;
  ok : (unit, string) result;
}

let expect_reason = function
  | Malformed -> "protocol"
  | Unknown_workload | Unknown_config -> "config"

let invalid_job = function
  | Malformed -> None
  | Unknown_workload -> Some (Client.workload_job ~workload:"no-such-workload" ~config:"Both" ())
  | Unknown_config -> Some (Client.workload_job ~workload:"a2time01" ~config:"NoSuchConfig" ())

let issue st req =
  let c = st.client in
  let t0 = Spans.now () in
  let accept = ref 0. in
  let on_stream v = if field "type" v = "accepted" && !accept = 0. then accept := Spans.now () -. t0 in
  let job =
    match req with
    | Warm i ->
        let w, cfg = List.nth warm_jobs i in
        Some (Client.workload_job ~workload:w ~config:cfg ())
    | Cold i -> Some (Client.source_job ~source:(fst st.colds.(i)) ~config:"Both" ())
    | Invalid k -> invalid_job k
  in
  let reply =
    match job with
    | Some j -> Client.await ~on_stream c (Client.submit c j)
    | None -> (
        Client.send_line c "{\"workload\": \"a2time01\", \"config\": ";
        match Client.recv c with
        | Some r -> r
        | None -> Error "connection closed by server")
  in
  let latency = Spans.now () -. t0 in
  let num k v = Option.value ~default:0. (Json.num_member k v) in
  let ok =
    match (req, reply) with
    | _, Error e -> Error e
    | Warm i, Ok v ->
        let f = st.fills.(i) in
        if field "type" v = "done" && field "run_digest" v = f.digest && field "ret" v = f.ret
        then Ok ()
        else Error ("warm answer differs from its fill: " ^ Json.to_string v)
    | Cold i, Ok v ->
        if field "type" v = "done" && field "ret" v = snd st.colds.(i) then Ok ()
        else Error (Printf.sprintf "cold answer, expected ret %s: %s" (snd st.colds.(i)) (Json.to_string v))
    | Invalid k, Ok v ->
        if field "type" v = "error" && field "reason" v = expect_reason k then Ok ()
        else Error ("expected reason " ^ expect_reason k ^ ": " ^ Json.to_string v)
  in
  let v = match reply with Ok v -> v | Error _ -> Json.Obj [] in
  {
    req;
    latency;
    accept = !accept;
    compile_s = num "compile_s" v;
    sim_s = num "sim_s" v;
    cycles = num "cycles" v;
    ok;
  }

let request_name st = function
  | Warm i -> let w, c = List.nth warm_jobs i in Printf.sprintf "warm %s/%s" w c
  | Cold i -> Printf.sprintf "cold kernel %d (%d bytes)" i (String.length (fst st.colds.(i)))
  | Invalid Malformed -> "malformed line"
  | Invalid Unknown_workload -> "unknown workload"
  | Invalid Unknown_config -> "unknown config"

let run ~seed ~seconds ~trace ~short : Report.run =
  let n_cold = if short then 2 else 15 * seconds in
  let k = ref 0 in
  let setup_s, st, release =
    Report.repeat_setup 5 (fun () ->
        incr k;
        setup ~seed ~n_cold !k)
  in
  Fun.protect ~finally:release (fun () ->
      let n = Array.length st.requests in
      Report.log "serve-mix: %d requests, %d cold" n n_cold;
      Spans.reset ();
      Spans.enabled := trace;
      let t0 = Spans.now () in
      let samples =
        Array.mapi
          (fun i req ->
            let parent = Spans.next () in
            let s = Spans.op i (fun () -> issue st req) in
            (* the server's own times become child intervals of the
               request; the rest of it is queueing, JSON and socket *)
            if s.compile_s +. s.sim_s > 0. then begin
              Spans.attach ~parent "serve.compile" s.compile_s;
              Spans.attach ~parent "serve.sim" s.sim_s
            end;
            s)
          st.requests
      in
      Spans.enabled := false;
      let window_s = Spans.now () -. t0 in
      let stats = stats st.client in
      let peak = Report.peak_rss_mb (Some st.server.pid) in
      let failed =
        Array.fold_left
          (fun acc s ->
            match s.ok with
            | Ok () -> acc
            | Error e ->
                Report.log "FAILED %s: %s" (request_name st s.req) e;
                acc + 1)
          0 samples
      in
      let pick f = Array.to_list samples |> List.filter f in
      let ms l = List.map (fun s -> s.latency *. 1000.) l in
      let warm = pick (fun s -> match s.req with Warm _ -> true | _ -> false) in
      let cold = pick (fun s -> match s.req with Cold _ -> true | _ -> false) in
      let invalid = pick (fun s -> match s.req with Invalid _ -> true | _ -> false) in
      (* the first warm request after each cold job *)
      let post_cold =
        snd
          (Array.fold_left
             (fun (after_cold, acc) s ->
               match s.req with
               | Cold _ -> (true, acc)
               | Warm _ when after_cold -> (false, s :: acc)
               | _ -> (after_cold, acc))
             (false, []) samples)
      in
      let stat k = float_of_int (Option.value ~default:0 (Json.int_member k stats)) in
      let mean f l = Report.mean (List.map f l) in
      let cold_ms f = mean (fun s -> f s *. 1000.) cold in
      {
        Report.attempted = n;
        failed;
        facts =
          [
            ("setup_s", setup_s);
            ("ops_per_s", float_of_int (n - failed) /. window_s);
            ("peak_rss_mb", peak);
            (* warm answers replay a cached result: only cold jobs ran
               the grid backend *)
            ("sim.grid_cycles", List.fold_left (fun a s -> a +. s.cycles) 0. cold);
            ("serve.warm_p50_ms", Report.percentile 0.5 (ms warm));
            ("serve.warm_p99_ms", Report.percentile 0.99 (ms warm));
            ("serve.cold_p50_ms", Report.percentile 0.5 (ms cold));
            ("serve.cold_p90_ms", Report.percentile 0.9 (ms cold));
            ("serve.accept_ms", cold_ms (fun s -> s.accept));
            ("serve.cold_compile_ms", cold_ms (fun s -> s.compile_s));
            ("serve.cold_sim_ms", cold_ms (fun s -> s.sim_s));
            ("serve.cold_wait_ms", cold_ms (fun s -> s.latency -. s.compile_s -. s.sim_s));
            ("serve.post_cold_warm_ms", Report.median (ms post_cold));
            ("serve.error_p50_ms", Report.median (ms invalid));
            ("serve.fast_hit_ratio", Report.div (stat "fast_hits") (float_of_int (List.length warm)));
            ("serve.jobs_failed", stat "jobs_failed");
            ("serve.protocol_errors", stat "protocol_errors");
            ("parallel.mem_hits", stat "mem_hits");
            ("parallel.mem_misses", stat "mem_misses");
            ("parallel.mem_evictions", stat "mem_evictions");
            ("parallel.disk_errors", stat "cache_errors");
          ];
      })
