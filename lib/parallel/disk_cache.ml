(* Crash-safe persistent key/value store: Marshal payloads behind a
   digest, written via temp-file + rename, sharded across 256 fan-out
   directories with an optional size cap enforced by mtime-ordered
   eviction. See the .mli for the contract. *)

type t = {
  dir : string;
  max_bytes : int option;
  hits : int Atomic.t;
  misses : int Atomic.t;
  errors : int Atomic.t;
  evictions : int Atomic.t;
  stores : int Atomic.t;
  tmp_swept : int;
  (* approximate bytes held in entries; corrected from a real scan every
     time the eviction path runs *)
  total : int Atomic.t;
  (* one evictor at a time per handle: eviction is correct without it
     (unlink is idempotent) but serializing avoids double-deleting fresh
     entries when two writers overflow the cap simultaneously *)
  evict_mu : Mutex.t;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
    (* lost a creation race: fine *)
  end

(* entries are named <digest>.bin; in-flight writes are
   <digest>.bin.tmp.<pid>.<n> *)
let is_entry name = Filename.check_suffix name ".bin"

let is_tmp name =
  (* any temp file of the store path convention, whatever its suffix *)
  let rec find i =
    i + 5 <= String.length name
    && (String.sub name i 5 = ".tmp." || find (i + 1))
  in
  find 0

let shard_names =
  lazy (Array.init 256 (fun i -> Printf.sprintf "%02x" i))

(* every (path, size, mtime) currently on disk, shard subdirectories
   and legacy flat entries alike; unreadable files are skipped (a
   concurrent evictor or writer got there first) *)
let scan_entries dir =
  let acc = ref [] in
  let file_of d name =
    let path = Filename.concat d name in
    match Unix.stat path with
    | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
        acc := (path, st_size, st_mtime) :: !acc
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  let dir_of d =
    match Sys.readdir d with
    | names -> Array.iter (fun n -> if is_entry n then file_of d n) names
    | exception Sys_error _ -> ()
  in
  dir_of dir;
  Array.iter
    (fun shard -> dir_of (Filename.concat dir shard))
    (Lazy.force shard_names);
  !acc

(* remove abandoned temp files (a process that died between write and
   rename leaves one behind); only files older than [max_age_s] go, so
   a concurrent writer's in-flight temp survives *)
let sweep_tmp ~max_age_s dir =
  let now = Unix.gettimeofday () in
  let swept = ref 0 in
  let sweep_dir d =
    match Sys.readdir d with
    | exception Sys_error _ -> ()
    | names ->
        Array.iter
          (fun name ->
            if is_tmp name then
              let path = Filename.concat d name in
              match Unix.stat path with
              | { Unix.st_kind = Unix.S_REG; st_mtime; _ }
                when now -. st_mtime > max_age_s -> (
                  match Sys.remove path with
                  | () -> incr swept
                  | exception Sys_error _ -> ())
              | _ -> ()
              | exception Unix.Unix_error _ -> ())
          names
  in
  sweep_dir dir;
  Array.iter
    (fun shard -> sweep_dir (Filename.concat dir shard))
    (Lazy.force shard_names);
  !swept

let create ?max_bytes ?(tmp_max_age_s = 600.) ~dir () =
  mkdir_p dir;
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  let tmp_swept = sweep_tmp ~max_age_s:tmp_max_age_s dir in
  let total =
    List.fold_left (fun a (_, s, _) -> a + s) 0 (scan_entries dir)
  in
  {
    dir;
    max_bytes;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    errors = Atomic.make 0;
    evictions = Atomic.make 0;
    stores = Atomic.make 0;
    tmp_swept;
    total = Atomic.make total;
    evict_mu = Mutex.create ();
  }

let dir t = t.dir

let path_of_key t ~key =
  let digest = Digest.to_hex (Digest.string key) in
  Filename.concat
    (Filename.concat t.dir (String.sub digest 0 2))
    (digest ^ ".bin")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* entry layout: 16 raw digest bytes over the marshalled payload,
   then the payload itself *)

let find t ~key =
  let path = path_of_key t ~key in
  match read_file path with
  | exception Sys_error _ ->
      Atomic.incr t.misses;
      None
  | raw -> (
      let ok =
        String.length raw >= 16
        &&
        let payload = String.sub raw 16 (String.length raw - 16) in
        String.equal (String.sub raw 0 16) (Digest.string payload)
      in
      if not ok then begin
        Atomic.incr t.errors;
        Atomic.incr t.misses;
        None
      end
      else
        match Marshal.from_string raw 16 with
        | v ->
            Atomic.incr t.hits;
            (* LRU-ish: a hit refreshes the entry's mtime so eviction
               prefers entries nobody reads (best-effort: a concurrent
               eviction may have unlinked the file already) *)
            (try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ());
            Some v
        | exception _ ->
            Atomic.incr t.errors;
            Atomic.incr t.misses;
            None)

(* Evict mtime-ascending until the total fits the cap again, never
   touching [keep] (the entry whose store triggered us) — so the
   invariant is "never above cap by more than the newest entry".
   Deletion is a bare unlink: a reader that already opened the file
   keeps its data (POSIX), a reader that has not gets a clean miss, and
   a crash mid-eviction just leaves the cache slightly over cap for the
   next store to finish the job. *)
let evict t ~cap ~keep =
  Mutex.lock t.evict_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.evict_mu)
    (fun () ->
      let entries =
        scan_entries t.dir
        |> List.sort (fun (pa, _, ma) (pb, _, mb) ->
               match Float.compare ma mb with
               | 0 -> String.compare pa pb
               | c -> c)
      in
      let total = List.fold_left (fun a (_, s, _) -> a + s) 0 entries in
      let remaining =
        List.fold_left
          (fun total (path, size, _) ->
            if total <= cap || String.equal path keep then total
            else begin
              (match Sys.remove path with
              | () -> Atomic.incr t.evictions
              | exception Sys_error _ -> ());
              total - size
            end)
          total entries
      in
      Atomic.set t.total remaining)

let tmp_counter = Atomic.make 0

let store t ~key v =
  let payload = Marshal.to_string v [] in
  let path = path_of_key t ~key in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  match
    mkdir_p (Filename.dirname path);
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (Digest.string payload);
        output_string oc payload);
    let old_size =
      match Unix.stat path with
      | { Unix.st_size; _ } -> st_size
      | exception Unix.Unix_error _ -> 0
    in
    Sys.rename tmp path;
    (old_size, String.length payload + 16)
  with
  | old_size, new_size ->
      Atomic.incr t.stores;
      let (_ : int) = Atomic.fetch_and_add t.total (new_size - old_size) in
      (match t.max_bytes with
      | Some cap when Atomic.get t.total > cap -> evict t ~cap ~keep:path
      | Some _ | None -> ())
  | exception Sys_error _ ->
      (if Sys.file_exists tmp then try Sys.remove tmp with Sys_error _ -> ());
      Atomic.incr t.errors

let remove t ~key =
  let path = path_of_key t ~key in
  match Unix.stat path with
  | { Unix.st_size; _ } -> (
      try
        Sys.remove path;
        let (_ : int) = Atomic.fetch_and_add t.total (-st_size) in
        ()
      with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let errors t = Atomic.get t.errors
let evictions t = Atomic.get t.evictions
let stores t = Atomic.get t.stores
let tmp_swept t = t.tmp_swept
let max_bytes t = t.max_bytes

let disk_usage t =
  List.fold_left (fun a (_, s, _) -> a + s) 0 (scan_entries t.dir)

let entry_count t = List.length (scan_entries t.dir)

let publish t (m : Edge_obs.Metrics.t) =
  let module M = Edge_obs.Metrics in
  M.incr ~by:(hits t) m "cache.hits";
  M.incr ~by:(misses t) m "cache.misses";
  M.incr ~by:(errors t) m "cache.errors";
  M.incr ~by:(evictions t) m "cache.evictions";
  M.incr ~by:(stores t) m "cache.stores";
  M.incr ~by:(tmp_swept t) m "cache.tmp_swept";
  M.incr ~by:(Atomic.get t.total) m "cache.bytes";
  (* shard occupancy, one histogram sample per non-empty shard: a
     healthy cache spreads entries evenly across the 256 directories *)
  Array.iter
    (fun shard ->
      let d = Filename.concat t.dir shard in
      match Sys.readdir d with
      | exception Sys_error _ -> ()
      | names ->
          let entries =
            Array.fold_left
              (fun a n -> if is_entry n then a + 1 else a)
              0 names
          in
          if entries > 0 then begin
            M.incr ~by:entries m "cache.shard.occupied_entries";
            M.observe m "cache.shard.entries" entries
          end)
    (Lazy.force shard_names)
