(* The parallel experiment machinery: the domain pool, the result
   caches, the calendar event queue, and — the property everything else
   leans on — bit-identical Figure 7 results for every jobs value. *)

module Pool = Edge_parallel.Pool
module Disk_cache = Edge_parallel.Disk_cache
module Mem_cache = Edge_parallel.Mem_cache
module Event_queue = Edge_sim.Event_queue

(* -- pool --------------------------------------------------------- *)

let pool_map_order () =
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun x -> (x * 7) mod 31) xs in
  Alcotest.(check (list int))
    "sequential fallback" expected
    (Pool.run ~jobs:1 (fun x -> (x * 7) mod 31) xs);
  Alcotest.(check (list int))
    "parallel keeps input order" expected
    (Pool.run ~jobs:4 (fun x -> (x * 7) mod 31) xs)

let pool_filter_map () =
  let xs = List.init 50 Fun.id in
  let f x = if x mod 3 = 0 then Some (x * x) else None in
  Alcotest.(check (list int))
    "filter_map parallel = sequential" (List.filter_map f xs)
    (List.filter_map Fun.id (Pool.run ~jobs:4 f xs))

exception Boom of int

let pool_exception () =
  (* the first failure in input order is the one re-raised *)
  match
    Pool.run ~jobs:4 (fun x -> if x >= 5 then raise (Boom x) else x)
      (List.init 20 Fun.id)
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Boom n -> Alcotest.(check int) "first failure wins" 5 n

(* back-to-back maps, more lanes than elements, and the empty list:
   each call starts and joins its own domains *)
let pool_reuse () =
  let a = Pool.run ~jobs:3 (fun x -> x + 1) [ 1; 2; 3 ] in
  let b = Pool.run ~jobs:3 (fun x -> x * 2) [ 4; 5 ] in
  Alcotest.(check (list int)) "first batch" [ 2; 3; 4 ] a;
  Alcotest.(check (list int)) "second batch" [ 8; 10 ] b;
  Alcotest.(check (list int)) "empty" [] (Pool.run ~jobs:3 succ [])

(* -- calendar event queue ----------------------------------------- *)

(* reference model with the old semantics: cycle -> events in insertion
   order, pop returns the exact-cycle batch, next_due the pending min *)
module Model = struct
  type t = (int, int list ref) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add (t : t) ~cycle v =
    match Hashtbl.find_opt t cycle with
    | Some l -> l := v :: !l
    | None -> Hashtbl.add t cycle (ref [ v ])

  let pop_due (t : t) ~cycle =
    match Hashtbl.find_opt t cycle with
    | None -> []
    | Some l ->
        Hashtbl.remove t cycle;
        List.rev !l

  let next_due (t : t) =
    Hashtbl.fold
      (fun c _ acc ->
        match acc with Some m -> Some (min m c) | None -> Some c)
      t None

  let is_empty (t : t) = Hashtbl.length t = 0
end

(* every event travels with a generation derived from its payload, so
   a drain that pairs the wrong ints shows up *)
let gen_of ev = (ev * 31) + 7

let add q ~cycle ev = Event_queue.add q ~cycle ev (gen_of ev)

(* the events drained at [cycle] in drain order; [f] may schedule more *)
let drained ?(f = fun _ -> ()) q ~cycle =
  let acc = ref [] in
  Event_queue.drain q ~cycle (fun ev gen ->
      Alcotest.(check int) "generation beside its event" (gen_of ev) gen;
      acc := ev :: !acc;
      f ev);
  List.rev !acc

let next_due q =
  match Event_queue.next_due q with c when c = max_int -> None | c -> Some c

let queue_fifo_and_ordering () =
  let q = Event_queue.create () in
  add q ~cycle:5 1;
  add q ~cycle:3 2;
  add q ~cycle:5 3;
  add q ~cycle:5 4;
  Alcotest.(check (option int)) "next_due" (Some 3) (next_due q);
  Alcotest.(check (list int)) "cycle 3" [ 2 ] (drained q ~cycle:3);
  Alcotest.(check (list int)) "nothing at 4" [] (drained q ~cycle:4);
  Alcotest.(check (list int)) "same-cycle FIFO" [ 1; 3; 4 ] (drained q ~cycle:5);
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q);
  Alcotest.(check (option int)) "empty" None (next_due q)

let queue_far_future () =
  (* events beyond the ring's 1024-cycle horizon grow it, and cycles
     congruent mod the horizon keep their own buckets *)
  let q = Event_queue.create () in
  add q ~cycle:10 1;
  add q ~cycle:5000 2;
  add q ~cycle:(10 + 1024) 3;
  Alcotest.(check (option int)) "min" (Some 10) (next_due q);
  Alcotest.(check (list int)) "near" [ 1 ] (drained q ~cycle:10);
  Alcotest.(check (option int)) "collision next" (Some 1034) (next_due q);
  Alcotest.(check (list int)) "collision" [ 3 ] (drained q ~cycle:1034);
  Alcotest.(check (list int)) "far" [ 2 ] (drained q ~cycle:5000);
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  (* scheduling from inside a drain: one horizon ahead lands in the slot
     being drained, past it grows the ring mid-drain *)
  let q = Event_queue.create () in
  add q ~cycle:1 1;
  add q ~cycle:1 2;
  let f ev =
    if ev = 1 then begin
      add q ~cycle:(1 + 1024) 3;
      add q ~cycle:(1 + 5000) 4;
      add q ~cycle:2 5
    end
  in
  Alcotest.(check (list int)) "drain schedules" [ 1; 2 ] (drained ~f q ~cycle:1);
  Alcotest.(check (list int)) "next cycle" [ 5 ] (drained q ~cycle:2);
  Alcotest.(check (option int)) "one horizon on" (Some 1025) (next_due q);
  Alcotest.(check (list int)) "slot reused" [ 3 ] (drained q ~cycle:1025);
  Alcotest.(check (list int)) "grown mid-drain" [ 4 ] (drained q ~cycle:5001);
  Alcotest.(check bool) "empty again" true (Event_queue.is_empty q)

let queue_matches_model () =
  (* a deterministic pseudo-random schedule replayed against the model:
     monotone cycle sweep, adds at +1..+2000 (past the horizon) before
     and from inside each drain, drains and next_due compared every
     step *)
  let q = Event_queue.create () and m = Model.create () in
  let seed = ref 0x2545F491 in
  let rand bound =
    seed := (!seed * 1103515245) + 12345;
    (!seed lsr 7) mod bound
  in
  let payload = ref 0 in
  let schedule cycle =
    let dt = 1 + rand 2000 in
    incr payload;
    add q ~cycle:(cycle + dt) !payload;
    Model.add m ~cycle:(cycle + dt) !payload
  in
  for cycle = 0 to 4000 do
    let n_adds = if rand 10 < 4 then 1 + rand 3 else 0 in
    for _ = 1 to n_adds do
      schedule cycle
    done;
    let expect = Model.pop_due m ~cycle in
    Alcotest.(check (list int))
      (Printf.sprintf "drain @%d" cycle)
      expect
      (drained q ~cycle ~f:(fun _ -> if rand 10 < 2 then schedule cycle));
    if rand 10 < 3 then
      Alcotest.(check (option int))
        (Printf.sprintf "next_due @%d" cycle)
        (Model.next_due m) (next_due q)
  done;
  (* drain whatever the sweep left behind *)
  let rec drain () =
    match next_due q with
    | None -> ()
    | Some c ->
        Alcotest.(check (option int)) "drain next_due" (Model.next_due m) (Some c);
        Alcotest.(check (list int))
          (Printf.sprintf "drain @%d" c)
          (Model.pop_due m ~cycle:c)
          (drained q ~cycle:c);
        drain ()
  in
  drain ();
  Alcotest.(check bool) "model drained too" true (Model.is_empty m)

(* -- persistent disk cache ---------------------------------------- *)

(* scratch directories live under Test_support.Tmpdir's process-temp
   root (removed at exit), so running the suite from the repo root
   leaves no dc_* litter behind *)
let dc name = Test_support.Tmpdir.path name

let cache_roundtrip () =
  let c = Disk_cache.create ~dir:(dc "dc_roundtrip") () in
  Alcotest.(check (option (list int))) "cold miss" None (Disk_cache.find c ~key:"a");
  Alcotest.(check int) "one miss" 1 (Disk_cache.misses c);
  Disk_cache.store c ~key:"a" [ 1; 2; 3 ];
  Disk_cache.store c ~key:"b" "hello";
  Alcotest.(check (option (list int)))
    "list round-trips" (Some [ 1; 2; 3 ])
    (Disk_cache.find c ~key:"a");
  Alcotest.(check (option string))
    "string round-trips" (Some "hello")
    (Disk_cache.find c ~key:"b");
  Alcotest.(check int) "two hits" 2 (Disk_cache.hits c);
  (* a second handle on the same dir sees the entries: persistence is
     the point *)
  let c2 = Disk_cache.create ~dir:(dc "dc_roundtrip") () in
  Alcotest.(check (option (list int)))
    "fresh handle hits" (Some [ 1; 2; 3 ])
    (Disk_cache.find c2 ~key:"a");
  Disk_cache.remove c2 ~key:"a";
  Alcotest.(check (option (list int)))
    "removed" None (Disk_cache.find c2 ~key:"a")

(* any change to the key — a bumped simulator revision, a different
   config digest — is a different file: old entries simply never match *)
let cache_key_invalidation () =
  let c = Disk_cache.create ~dir:(dc "dc_invalidate") () in
  let key rev = String.concat "|" [ "run-v1"; rev; "tblook01"; "Both" ] in
  Disk_cache.store c ~key:(key "cycle-sim-4") 42;
  Alcotest.(check (option int))
    "current revision hits" (Some 42)
    (Disk_cache.find c ~key:(key "cycle-sim-4"));
  Alcotest.(check (option int))
    "bumped revision misses" None
    (Disk_cache.find c ~key:(key "cycle-sim-5"))

let corrupt path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  close_in ic;
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  (* flip a byte in the middle of the payload *)
  seek_out oc (len / 2);
  output_char oc '\xff';
  close_out oc

(* entries live in 256 fan-out subdirectories: walk them all *)
let corrupt_all_entries cache =
  let root = Disk_cache.dir cache in
  Array.iter
    (fun name ->
      let sub = Filename.concat root name in
      if Sys.is_directory sub then
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".bin" then
              corrupt (Filename.concat sub f))
          (Sys.readdir sub))
    (Sys.readdir root)

let cache_corruption () =
  let c = Disk_cache.create ~dir:(dc "dc_corrupt") () in
  Disk_cache.store c ~key:"k" (Array.init 64 string_of_int);
  corrupt (Disk_cache.path_of_key c ~key:"k");
  Alcotest.(check (option (array string)))
    "corrupted entry reads as a miss" None
    (Disk_cache.find c ~key:"k");
  Alcotest.(check bool) "corruption counted" true (Disk_cache.errors c >= 1);
  (* and the caller's recompute-and-store path repairs it *)
  Disk_cache.store c ~key:"k" (Array.init 64 string_of_int);
  Alcotest.(check (option (array string)))
    "restored entry hits"
    (Some (Array.init 64 string_of_int))
    (Disk_cache.find c ~key:"k");
  (* a truncated entry (torn short of the digest) is also just a miss *)
  let path = Disk_cache.path_of_key c ~key:"k" in
  let oc = open_out_gen [ Open_wronly; Open_trunc; Open_binary ] 0o644 path in
  output_string oc "short";
  close_out oc;
  Alcotest.(check (option (array string)))
    "truncated entry reads as a miss" None
    (Disk_cache.find c ~key:"k")

(* the harness integration: a cached Experiment.run_one rerun must
   reproduce the uncached run exactly, with the timing fields zeroed.
   Runs with the static verifier off: checked runs deliberately bypass
   the persistent result cache, which is exactly what this test is
   exercising. *)
let cache_experiment_roundtrip () =
  Edge_check.Check.without_check @@ fun () ->
  let w =
    match Edge_workloads.Registry.find "tblook01" with
    | Some w -> w
    | None -> Alcotest.fail "tblook01 missing from registry"
  in
  let cfg = ("Both", Dfp.Config.both) in
  let cache = Disk_cache.create ~dir:(dc "dc_experiment") () in
  let r1 =
    match Edge_harness.Experiment.run_one ~cache w cfg with
    | Ok r -> r
    | Error e -> Alcotest.failf "cold run: %s" e
  in
  Alcotest.(check int) "cold run missed" 1 (Disk_cache.misses cache);
  let r2 =
    match Edge_harness.Experiment.run_one ~cache w cfg with
    | Ok r -> r
    | Error e -> Alcotest.failf "warm run: %s" e
  in
  Alcotest.(check int) "warm run hit" 1 (Disk_cache.hits cache);
  Alcotest.(check int) "identical cycles"
    r1.Edge_harness.Experiment.cycles r2.Edge_harness.Experiment.cycles;
  Alcotest.(check bool) "identical stats" true
    (r1.Edge_harness.Experiment.stats = r2.Edge_harness.Experiment.stats);
  Alcotest.(check (float 0.0)) "hit reports zero compile time" 0.
    r2.Edge_harness.Experiment.compile_s;
  Alcotest.(check (float 0.0)) "hit reports zero sim time" 0.
    r2.Edge_harness.Experiment.sim_s;
  (* corrupting the entry degrades to a recompute with the same result *)
  corrupt_all_entries cache;
  let r3 =
    match Edge_harness.Experiment.run_one ~cache w cfg with
    | Ok r -> r
    | Error e -> Alcotest.failf "post-corruption run: %s" e
  in
  Alcotest.(check int) "recomputed cycles identical"
    r1.Edge_harness.Experiment.cycles r3.Edge_harness.Experiment.cycles;
  Alcotest.(check bool) "corruption recorded" true
    (Disk_cache.errors cache >= 1)

(* -- sharding, contention and faults ------------------------------ *)

let shard_of c key =
  Filename.basename (Filename.dirname (Disk_cache.path_of_key c ~key))

(* n keys whose digests land in the same fan-out directory — the
   worst case for directory-level races *)
let same_shard_keys c n =
  let target = shard_of c "w0" in
  let rec go i acc count =
    if count = n then List.rev acc
    else
      let k = "w" ^ string_of_int i in
      if shard_of c k = target then go (i + 1) (k :: acc) (count + 1)
      else go (i + 1) acc count
  in
  go 0 [] 0

let cache_sharded_layout () =
  let c = Disk_cache.create ~dir:(dc "dc_shape") () in
  for i = 0 to 63 do
    Disk_cache.store c ~key:(string_of_int i) i
  done;
  Alcotest.(check int) "all entries present" 64 (Disk_cache.entry_count c);
  (* no entry may sit at the top level; each lives under a 2-hex-digit
     shard directory that path_of_key points into *)
  Array.iter
    (fun f ->
      Alcotest.(check bool)
        ("no top-level entry: " ^ f)
        false
        (Filename.check_suffix f ".bin"))
    (Sys.readdir (Disk_cache.dir c));
  for i = 0 to 63 do
    let key = string_of_int i in
    let shard = shard_of c key in
    Alcotest.(check int) ("shard name width for " ^ key) 2 (String.length shard);
    Alcotest.(check bool)
      ("entry on disk for " ^ key)
      true
      (Sys.file_exists (Disk_cache.path_of_key c ~key))
  done

(* several domains hammering the same shard: every key must stay
   readable with its exact payload, and no read may ever decode
   garbage (atomic tmp+rename is the mechanism under test) *)
let cache_concurrent_writers () =
  let c = Disk_cache.create ~dir:(dc "dc_race_write") () in
  let keys = same_shard_keys c 6 in
  let payload key = (key, String.length key, String.make 256 key.[0]) in
  let torn = Atomic.make 0 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 40 do
              List.iter
                (fun key ->
                  Disk_cache.store c ~key (payload key);
                  match Disk_cache.find c ~key with
                  | None -> () (* lost a transient race: clean miss is fine *)
                  | Some v -> if v <> payload key then Atomic.incr torn)
                keys
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no torn reads" 0 (Atomic.get torn);
  Alcotest.(check int) "no decode errors" 0 (Disk_cache.errors c);
  List.iter
    (fun key ->
      Alcotest.(check bool)
        ("final value intact: " ^ key)
        true
        (Disk_cache.find c ~key = Some (payload key)))
    keys

(* a reader racing the evictor: each lookup must be the exact stored
   value or a clean miss — never a decode error *)
let cache_eviction_race () =
  let payload k = (k, String.make 2048 (Char.chr (97 + (k mod 26)))) in
  let c = Disk_cache.create ~dir:(dc "dc_evict_race") ~max_bytes:(32 * 1024) () in
  let stop = Atomic.make false in
  let torn = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          for k = 0 to 63 do
            match Disk_cache.find c ~key:("ev" ^ string_of_int k) with
            | None -> () (* evicted: clean miss *)
            | Some v -> if v <> payload k then Atomic.incr torn
          done
        done)
  in
  for _ = 1 to 4 do
    for k = 0 to 63 do
      Disk_cache.store c ~key:("ev" ^ string_of_int k) (payload k)
    done
  done;
  Atomic.set stop true;
  Domain.join reader;
  Alcotest.(check int) "reads are hit-or-miss, never torn" 0 (Atomic.get torn);
  Alcotest.(check int) "no decode errors under eviction" 0 (Disk_cache.errors c);
  Alcotest.(check bool) "the cap actually evicted" true
    (Disk_cache.evictions c > 0)

(* size-cap soak: after every store the scan-measured usage must stay
   within cap + the just-written entry (the documented invariant) *)
let cache_size_cap_soak () =
  let cap = 16 * 1024 in
  let c = Disk_cache.create ~dir:(dc "dc_cap") ~max_bytes:cap () in
  Alcotest.(check (option int)) "cap recorded" (Some cap) (Disk_cache.max_bytes c);
  let last = ref "" in
  for i = 0 to 199 do
    let payload = String.make (512 + (64 * (i mod 7))) (Char.chr (97 + (i mod 26))) in
    last := payload;
    Disk_cache.store c ~key:("cap" ^ string_of_int i) payload;
    let usage = Disk_cache.disk_usage c in
    let bound = cap + String.length payload + 64 in
    if usage > bound then
      Alcotest.failf "store %d: usage %d exceeds cap+entry bound %d" i usage
      bound
  done;
  Alcotest.(check bool) "soak forced evictions" true (Disk_cache.evictions c > 0);
  Alcotest.(check (option string))
    "newest entry is never the victim" (Some !last)
    (Disk_cache.find c ~key:"cap199")

(* writers that die between write and rename leave *.tmp.* litter;
   opening a handle sweeps stale ones and spares live ones *)
let cache_tmp_sweep () =
  let dir = dc "dc_tmp" in
  let c = Disk_cache.create ~dir () in
  Disk_cache.store c ~key:"live" 41;
  let shard = Filename.dirname (Disk_cache.path_of_key c ~key:"live") in
  let plant name =
    let path = Filename.concat shard name in
    let oc = open_out_bin path in
    output_string oc "abandoned";
    close_out oc;
    path
  in
  let stale = plant "deadbeef.bin.tmp.1234.0" in
  Unix.utimes stale 1000. 1000. (* back-date far past tmp_max_age_s *);
  let fresh = plant "deadbeef.bin.tmp.1234.1" (* mtime = now: maybe live *) in
  let c2 = Disk_cache.create ~dir () in
  Alcotest.(check bool) "stale tmp swept" false (Sys.file_exists stale);
  Alcotest.(check bool) "fresh tmp spared" true (Sys.file_exists fresh);
  Alcotest.(check bool) "sweep counted" true (Disk_cache.tmp_swept c2 >= 1);
  Alcotest.(check (option int))
    "entries survive the sweep" (Some 41)
    (Disk_cache.find c2 ~key:"live")

(* -- sharded in-memory result cache ------------------------------- *)

let mem_basics () =
  let m = Mem_cache.create () in
  Alcotest.(check (option int)) "cold miss" None (Mem_cache.find m ~key:"a");
  Alcotest.(check int) "miss counted" 1 (Mem_cache.misses m);
  Mem_cache.store m ~key:"a" 1;
  Mem_cache.store m ~key:"b" 2;
  Alcotest.(check (option int)) "hit" (Some 1) (Mem_cache.find m ~key:"a");
  Alcotest.(check int) "hit counted" 1 (Mem_cache.hits m);
  Alcotest.(check int) "entries" 2 (Mem_cache.entry_count m);
  Mem_cache.store m ~key:"a" 10;
  Alcotest.(check (option int))
    "replace, not duplicate" (Some 10)
    (Mem_cache.find m ~key:"a");
  Alcotest.(check int) "replace keeps count" 2 (Mem_cache.entry_count m)

let mem_eviction_lru () =
  (* one stripe so the whole cap lands in a single LRU clock *)
  let m = Mem_cache.create ~stripes:1 ~max_entries:3 () in
  Mem_cache.store m ~key:"a" 1;
  Mem_cache.store m ~key:"b" 2;
  Mem_cache.store m ~key:"c" 3;
  (* touch [a] so [b] is now the least recently used *)
  Alcotest.(check (option int)) "refresh a" (Some 1) (Mem_cache.find m ~key:"a");
  Mem_cache.store m ~key:"d" 4;
  Alcotest.(check int) "capped" 3 (Mem_cache.entry_count m);
  Alcotest.(check int) "one eviction" 1 (Mem_cache.evictions m);
  Alcotest.(check (option int)) "LRU victim gone" None (Mem_cache.find m ~key:"b");
  Alcotest.(check (option int)) "refreshed survives" (Some 1)
    (Mem_cache.find m ~key:"a");
  Alcotest.(check (option int)) "newest survives" (Some 4)
    (Mem_cache.find m ~key:"d")

(* domains hammering overlapping keys: every lookup must return a
   value some store put there for that exact key — stripe locking is
   the mechanism under test *)
let mem_concurrent () =
  let m = Mem_cache.create ~stripes:4 ~max_entries:64 () in
  let torn = Atomic.make 0 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 2000 do
              let key = "k" ^ string_of_int (i mod 16) in
              Mem_cache.store m ~key (key, d);
              match Mem_cache.find m ~key with
              | None -> () (* evicted by a neighbour: clean miss *)
              | Some (k, _) -> if k <> key then Atomic.incr torn
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no torn values" 0 (Atomic.get torn)

(* the one run cache below dfpd's fast path: a disk hit replays the
   identical run with zeroed times and without compiling *)
let mem_disk_coherence () =
  Edge_check.Check.without_check @@ fun () ->
  let w =
    match Edge_workloads.Registry.find "tblook01" with
    | Some w -> w
    | None -> Alcotest.fail "tblook01 missing from registry"
  in
  let cfg = ("Both", Dfp.Config.both) in
  let cache = Disk_cache.create ~dir:(dc "dc_mem_coherence") () in
  let run () =
    match Edge_harness.Experiment.run_one ~cache w cfg with
    | Ok r -> r
    | Error e -> Alcotest.failf "run: %s" e
  in
  let r1 = run () in
  Alcotest.(check int) "cold: disk missed" 1 (Disk_cache.misses cache);
  Alcotest.(check int) "cold: stored" 1 (Disk_cache.stores cache);
  let compiles = Edge_harness.Experiment.compiles_performed () in
  let r2 = run () in
  Alcotest.(check int) "warm: disk hit" 1 (Disk_cache.hits cache);
  Alcotest.(check int) "warm: no compile" compiles
    (Edge_harness.Experiment.compiles_performed ());
  Alcotest.(check (pair (float 0.) (float 0.)))
    "warm: zero times" (0., 0.)
    (r2.Edge_harness.Experiment.compile_s, r2.Edge_harness.Experiment.sim_s);
  Alcotest.(check bool) "disk hit replays the identical run" true
    ({ r1 with Edge_harness.Experiment.compile_s = 0.; sim_s = 0. } = r2)

(* a store is durable when it returns: a fresh handle on the same
   directory reads every entry at once, payloads intact *)
let cache_store_durable () =
  let dir = dc "dc_async" in
  let c = Disk_cache.create ~dir () in
  for i = 0 to 31 do
    let key = "as" ^ string_of_int i in
    Disk_cache.store c ~key (i, String.make 128 'x');
    let fresh = Disk_cache.create ~dir () in
    Alcotest.(check (option (pair int string)))
      ("visible to a fresh handle " ^ string_of_int i)
      (Some (i, String.make 128 'x'))
      (Disk_cache.find fresh ~key)
  done;
  Alcotest.(check int) "all stores landed" 32 (Disk_cache.entry_count c)

(* -- determinism of the parallel sweep ---------------------------- *)

(* the pool must not let scheduling order leak into results: same
   inputs, same outputs, same order, for every jobs value — including
   deliberately lopsided task costs, so lanes claim unequal shares *)
let pool_stealing_deterministic () =
  let xs = List.init 200 Fun.id in
  let busy x =
    (* task cost swings by ~1000x across inputs *)
    let n = if x mod 17 = 0 then 20_000 else 20 in
    let acc = ref x in
    for i = 1 to n do
      acc := ((!acc * 1103515245) + i) land 0x3FFFFFFF
    done;
    !acc
  in
  let r1 = Pool.run ~jobs:1 busy xs in
  let r2 = Pool.run ~jobs:2 busy xs in
  let r4 = Pool.run ~jobs:4 busy xs in
  Alcotest.(check (list int)) "jobs=2 matches jobs=1" r1 r2;
  Alcotest.(check (list int)) "jobs=4 matches jobs=1" r1 r4

let sweep_deterministic () =
  let benches =
    List.filter_map Edge_workloads.Registry.find [ "tblook01"; "canrdr01" ]
  in
  let seq = List.hd (Edge_harness.Figure7.run ~benches ~jobs:1 ()) in
  let par = List.hd (Edge_harness.Figure7.run ~benches ~jobs:4 ()) in
  Alcotest.(check (list string))
    "no errors sequential" []
    (List.map fst seq.Edge_harness.Figure7.errors);
  Alcotest.(check (list string))
    "no errors parallel" []
    (List.map fst par.Edge_harness.Figure7.errors);
  let cycles r =
    List.map
      (fun row ->
        ( row.Edge_harness.Figure7.bench,
          row.Edge_harness.Figure7.cycles ))
      r.Edge_harness.Figure7.rows
  in
  Alcotest.(check (list (pair string (list (pair string int)))))
    "identical cycles for jobs=1 and jobs=4" (cycles seq) (cycles par);
  Alcotest.(check (list (pair string (float 0.0))))
    "identical geomeans" seq.Edge_harness.Figure7.mean_speedups
    par.Edge_harness.Figure7.mean_speedups

let tests =
  [
    Alcotest.test_case "pool map order" `Quick pool_map_order;
    Alcotest.test_case "pool filter_map" `Quick pool_filter_map;
    Alcotest.test_case "pool exception" `Quick pool_exception;
    Alcotest.test_case "pool reuse" `Quick pool_reuse;
    Alcotest.test_case "event queue fifo" `Quick queue_fifo_and_ordering;
    Alcotest.test_case "event queue far future" `Quick queue_far_future;
    Alcotest.test_case "event queue vs model" `Quick queue_matches_model;
    Alcotest.test_case "disk cache roundtrip" `Quick cache_roundtrip;
    Alcotest.test_case "disk cache key invalidation" `Quick
      cache_key_invalidation;
    Alcotest.test_case "disk cache corruption" `Quick cache_corruption;
    Alcotest.test_case "disk cache experiment roundtrip" `Quick
      cache_experiment_roundtrip;
    Alcotest.test_case "disk cache sharded layout" `Quick cache_sharded_layout;
    Alcotest.test_case "disk cache concurrent writers" `Quick
      cache_concurrent_writers;
    Alcotest.test_case "disk cache eviction vs reader" `Quick
      cache_eviction_race;
    Alcotest.test_case "disk cache size-cap soak" `Quick cache_size_cap_soak;
    Alcotest.test_case "disk cache tmp sweep" `Quick cache_tmp_sweep;
    Alcotest.test_case "disk cache async writeback" `Quick
      cache_store_durable;
    Alcotest.test_case "mem cache basics" `Quick mem_basics;
    Alcotest.test_case "mem cache LRU eviction" `Quick mem_eviction_lru;
    Alcotest.test_case "mem cache concurrent" `Quick mem_concurrent;
    Alcotest.test_case "mem/disk cache coherence" `Quick mem_disk_coherence;
    Alcotest.test_case "pool stealing deterministic" `Quick
      pool_stealing_deterministic;
    Alcotest.test_case "sweep deterministic" `Slow sweep_deterministic;
  ]
