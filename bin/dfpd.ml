(* dfpd: the compile-and-simulate job server.

   Listens on a Unix socket for newline-delimited JSON jobs (see
   lib/serve/proto.ml and README "The job server"), schedules them
   across a domain pool with single-flight dedup, and answers from the
   sharded disk cache when it can.

     dfpd --socket /tmp/dfpd.sock -j 4 --cache-dir /tmp/dfpd-cache

   Runs until a client sends {"op":"shutdown"} or the process gets
   SIGINT/SIGTERM; both paths drain the queue and unlink the socket. *)

let () =
  let socket = ref "dfpd.sock" in
  let jobs = ref (max 1 (Domain.recommended_domain_count () - 1)) in
  let queue_cap = ref 64 in
  let cache_dir = ref "" in
  let cache_max_mb = ref 0 in
  let mem_entries = ref 4096 in
  let max_cycles = ref 10_000_000 in
  let quiet = ref false in
  let spec =
    [
      ("--socket", Arg.Set_string socket, "PATH Unix socket path (default dfpd.sock)");
      ("-j", Arg.Set_int jobs, "N worker domains (default: cores-1)");
      ("--queue-cap", Arg.Set_int queue_cap, "N pending-job bound (default 64)");
      ("--cache-dir", Arg.Set_string cache_dir, "DIR persistent result cache (default: no cache)");
      ( "--cache-max-mb",
        Arg.Set_int cache_max_mb,
        "MB evict the cache down to this size (default: uncapped)" );
      ( "--mem-entries",
        Arg.Set_int mem_entries,
        "N entries of the in-memory result cache behind the warm fast path \
         (default 4096)" );
      ( "--no-mem-cache",
        Arg.Unit (fun () -> mem_entries := 0),
        " disable the in-memory result cache, and with it the warm fast \
         path (repeats then go to a worker and the disk cache)" );
      ( "--max-cycles",
        Arg.Set_int max_cycles,
        "N watchdog ceiling for submitted-source jobs (default 10M)" );
      ("--quiet", Arg.Set quiet, " no startup/shutdown chatter");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "dfpd [options]";
  let cache =
    if !cache_dir = "" then None
    else
      Some
        (Edge_parallel.Disk_cache.create
           ?max_bytes:
             (if !cache_max_mb > 0 then Some (!cache_max_mb * 1024 * 1024)
              else None)
           ~dir:!cache_dir ())
  in
  let cfg =
    {
      (Edge_serve.Server.default_config ?cache ~socket_path:!socket ()) with
      jobs = max 1 !jobs;
      queue_cap = max 1 !queue_cap;
      mem_entries = max 0 !mem_entries;
      max_cycles = max 1000 !max_cycles;
    }
  in
  let srv = Edge_serve.Server.start cfg in
  let on_signal _ = Edge_serve.Server.request_shutdown srv in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  if not !quiet then
    Printf.printf "dfpd: listening on %s (%d workers, queue %d, cache %s)\n%!"
      !socket cfg.jobs cfg.queue_cap
      (match cache with
      | Some c -> Edge_parallel.Disk_cache.dir c
      | None -> "off");
  Edge_serve.Server.wait srv;
  Edge_serve.Server.stop srv;
  if not !quiet then print_endline "dfpd: shut down"
