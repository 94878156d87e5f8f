(* A domain-safe memo table: the first caller of a key computes, every
   concurrent caller of the same key blocks until the value lands, and
   later callers hit the table.  Used for compile artifacts and
   reference-interpreter runs shared across the experiment sweep.

   The table is striped by key hash: each stripe has its own mutex,
   condition and hashtable, so concurrent hits on *different* keys
   never serialize on one global lock (the old single-mutex layout made
   the memo itself the bottleneck when every worker domain consulted it
   per job). Waiters of a pending computation block on their stripe's
   condition only; a completion broadcast wakes at most the waiters of
   that stripe.

   A stripe is bounded: a long-lived process (the job server) sees an
   unbounded stream of distinct keys, so a stripe that reaches
   [stripe_cap] entries drops its settled ones before the next key goes
   in. Pending computations always stay, so their waiters are never
   orphaned. The whole evaluation (bench/main.exe all) compiles 169
   (workload, config) pairs, which fit under a cap of 16 per stripe, so
   with 32 it never drops an entry. *)

type 'v state = Done of 'v | Failed of exn | Pending

type ('k, 'v) stripe = {
  mu : Mutex.t;
  ready : Condition.t;
  tbl : ('k, 'v state) Hashtbl.t;
}

type ('k, 'v) t = ('k, 'v) stripe array

let stripes = 16
let stripe_cap = 32

let create () =
  Array.init stripes (fun _ ->
      {
        mu = Mutex.create ();
        ready = Condition.create ();
        tbl = Hashtbl.create 16;
      })

let stripe_of (t : ('k, 'v) t) key = t.(Hashtbl.hash key land (stripes - 1))

(* caller holds [s.mu] *)
let shed s =
  Hashtbl.filter_map_inplace
    (fun _ st -> match st with Pending -> Some st | Done _ | Failed _ -> None)
    s.tbl

let get t key f =
  let s = stripe_of t key in
  Mutex.lock s.mu;
  let rec loop () =
    match Hashtbl.find_opt s.tbl key with
    | Some (Done v) ->
        Mutex.unlock s.mu;
        v
    | Some (Failed e) ->
        Mutex.unlock s.mu;
        raise e
    | Some Pending ->
        Condition.wait s.ready s.mu;
        loop ()
    | None ->
        if Hashtbl.length s.tbl >= stripe_cap then shed s;
        Hashtbl.replace s.tbl key Pending;
        Mutex.unlock s.mu;
        let st = try Done (f ()) with e -> Failed e in
        Mutex.lock s.mu;
        Hashtbl.replace s.tbl key st;
        Condition.broadcast s.ready;
        Mutex.unlock s.mu;
        (match st with
        | Done v -> v
        | Failed e -> raise e
        | Pending -> assert false)
  in
  loop ()
