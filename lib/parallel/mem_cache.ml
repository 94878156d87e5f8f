(* Striped in-memory LRU cache. See the .mli for the contract. *)

type 'v entry = { value : 'v; mutable tick : int }

type 'v stripe = {
  mu : Mutex.t;
  tbl : (string, 'v entry) Hashtbl.t;
  mutable clock : int;  (* stripe-local access counter *)
}

type 'v t = {
  stripes_arr : 'v stripe array;
  cap_per_stripe : int;  (* 0 = unbounded *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let create ?(stripes = 64) ?(max_entries = 4096) () =
  let n = pow2 (max 1 stripes) 1 in
  let cap_per_stripe =
    if max_entries <= 0 then 0 else max 1 (max_entries / n)
  in
  {
    stripes_arr =
      Array.init n (fun _ ->
          { mu = Mutex.create (); tbl = Hashtbl.create 16; clock = 0 });
    cap_per_stripe;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
  }

let stripe_of t key =
  t.stripes_arr.(Hashtbl.hash key land (Array.length t.stripes_arr - 1))

let find t ~key =
  let s = stripe_of t key in
  Mutex.lock s.mu;
  let r =
    match Hashtbl.find_opt s.tbl key with
    | Some e ->
        s.clock <- s.clock + 1;
        e.tick <- s.clock;
        Some e.value
    | None -> None
  in
  Mutex.unlock s.mu;
  (match r with
  | Some _ -> Atomic.incr t.hits
  | None -> Atomic.incr t.misses);
  r

(* the stripe is at most [cap_per_stripe] entries, so the LRU scan is
   O(cap/stripes) — tens of entries, not thousands *)
let evict_lru t s =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, best) when best <= e.tick -> ()
      | _ -> victim := Some (k, e.tick))
    s.tbl;
  match !victim with
  | Some (k, _) ->
      Hashtbl.remove s.tbl k;
      Atomic.incr t.evictions
  | None -> ()

let store t ~key v =
  let s = stripe_of t key in
  Mutex.lock s.mu;
  s.clock <- s.clock + 1;
  (match Hashtbl.find_opt s.tbl key with
  | Some _ -> Hashtbl.replace s.tbl key { value = v; tick = s.clock }
  | None ->
      if t.cap_per_stripe > 0 && Hashtbl.length s.tbl >= t.cap_per_stripe
      then evict_lru t s;
      Hashtbl.replace s.tbl key { value = v; tick = s.clock });
  Mutex.unlock s.mu

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let evictions t = Atomic.get t.evictions

let entry_count t =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.mu;
      let n = Hashtbl.length s.tbl in
      Mutex.unlock s.mu;
      acc + n)
    0 t.stripes_arr
