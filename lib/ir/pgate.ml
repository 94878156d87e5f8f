(* The symbolic gating analysis over guarded hyperblock TAC: per-site
   fire regions and three-valued values as BDDs over the block's
   enumeration variables.

   This used to live inside lib/check/hblock_check; it is extracted here
   so the polynomial invariant checker and the Psi-SSA analysis layer
   ([Psi_ssa], and the ineffectuality pass built on it) share one model.
   Sharing is load-bearing exactly like [Gate] is for encoded blocks:
   "the optimizer only deletes what the checker's model proves dead" is
   a statement about one abstraction evaluated twice, not two
   abstractions that happen to agree.

   The model mirrors what codegen will emit:

     avail(t)  — assignments on which temp [t] carries a token: always,
                 for live-in temps (a register read fires
                 unconditionally); otherwise the union of its def
                 sites' fire regions.  There is no fallthrough from a
                 def site to a live-in read — codegen emits reads only
                 for temps with no in-block producer.
     E(site)   — a site fires when its guard matches and its data
                 operands are available (sand short-circuits on a false
                 left operand, as the sand instruction does).
     value     — three-valued (true/false/underivable) per def site,
                 with compare defs sharing one variable exactly like
                 encoded-block tests (complementary integer compares
                 share it negated; float compares never merge). *)

module Hb = Hblock
module O = Edge_isa.Opcode

(* operand identity for compare-variable sharing: chase single-def mov
   chains so [t2 = mov t1; tlt t2, n] shares with [tlt t1, n] *)
type horigin = HTemp of Temp.t | HImm of int64

let origin sites body op =
  let rec go op seen =
    match op with
    | Tac.C c -> HImm c
    | Tac.T t -> (
        if Temp.Set.mem t seen then HTemp t
        else
          match Temp.Map.find_opt t sites with
          | Some [ i ] -> (
              match body.(i).Hb.hop with
              | Hb.Op (Tac.Un { op = O.Mov; a; _ }) ->
                  go a (Temp.Set.add t seen)
              | _ -> HTemp t)
          | _ -> HTemp t)
  in
  go op Temp.Set.empty

type t = {
  m : Bdd.t;
  body : Hb.hinstr array;
  sites : int list Temp.Map.t;  (** def sites per temp, in body order *)
  store_positions : int array;  (** body position of the k-th store *)
  e : Bdd.node array;  (** fire region per site *)
  svt : Bdd.node array;  (** site value true (given the site fired) *)
  svu : Bdd.node array;  (** site value underivable *)
  site_var : (int * bool) option array;  (** enumeration var per def site *)
  livein_var : (Temp.t, int) Hashtbl.t;
  vars : (Temp.t * int option) array;
      (** per enumeration variable: its temp and def site ([None] for a
          live-in) *)
  nvars : int;
}

(* a variable's display name: [t3@5] for the def of t3 at site 5, [t3]
   for a live-in; rendered only when a diagnostic needs it *)
let name g v =
  match g.vars.(v) with
  | t, Some i -> Format.asprintf "%a@%d" Temp.pp t i
  | t, None -> Format.asprintf "%a" Temp.pp t

let avail g t =
  match Temp.Map.find_opt t g.sites with
  | None -> Bdd.True
  | Some ss -> Bdd.disj_list g.m (List.map (fun i -> g.e.(i)) ss)

let temp_val g t =
  match Temp.Map.find_opt t g.sites with
  | None -> (
      match Hashtbl.find_opt g.livein_var t with
      | Some pos -> (Bdd.var g.m pos, Bdd.False)
      | None -> (Bdd.False, Bdd.True))
  | Some ss ->
      let vt =
        Bdd.disj_list g.m
          (List.map (fun i -> Bdd.conj g.m g.e.(i) g.svt.(i)) ss)
      in
      let vu =
        Bdd.disj_list g.m
          (List.map (fun i -> Bdd.conj g.m g.e.(i) g.svu.(i)) ss)
      in
      (vt, vu)

let op_val g = function
  | Tac.C c ->
      ((if Int64.logand c 1L <> 0L then Bdd.True else Bdd.False), Bdd.False)
  | Tac.T t -> temp_val g t

let op_avail g = function Tac.C _ -> Bdd.True | Tac.T t -> avail g t

let is_false_op g op =
  let vt, vu = op_val g op in
  Bdd.conj g.m (Bdd.neg g.m vt) (Bdd.neg g.m vu)

let guard_matched g = function
  | None -> Bdd.True
  | Some gd ->
      Bdd.disj_list g.m
        (List.map
           (fun p ->
             let vt, vu = temp_val g p in
             let pol =
               if gd.Hb.gpol then Bdd.conj g.m vt (Bdd.neg g.m vu)
               else Bdd.conj g.m (Bdd.neg g.m vt) (Bdd.neg g.m vu)
             in
             Bdd.conj g.m (avail g p) pol)
           gd.Hb.gpreds)

(* the site's fire region as the model would recompute it without its
   explicit guard: just data availability (the guard-drop legality
   test: if this equals e(site), the guard is an ineffectual delivery) *)
let fire_unguarded g i =
  let hi = g.body.(i) in
  match hi.Hb.hop with
  | Hb.Sand { a; b; _ } ->
      Bdd.conj g.m (avail g a)
        (Bdd.disj g.m (is_false_op g (Tac.T a)) (avail g b))
  | _ ->
      Bdd.conj_list g.m
        (List.map (fun t -> op_avail g (Tac.T t)) (Hb.data_uses hi))

(* a satisfying assignment rendered enumerator-style, for diagnostics *)
let witness g cond =
  match Bdd.any_sat cond with
  | None | Some [] -> ""
  | Some pairs ->
      Printf.sprintf " on path [%s]"
        (String.concat " "
           (List.map
              (fun (v, value) ->
                Printf.sprintf "%s=%d" (name g v) (if value then 1 else 0))
              pairs))

let analyze ?budget (h : Hb.t) : (t, string) result =
  let body = h.Hb.body in
  let barr = Array.of_list body in
  let len = Array.length barr in
  let sites = Hb.def_sites h in
  let store_positions =
    let pos = ref [] in
    List.iteri
      (fun i hi ->
        match hi.Hb.hop with
        | Hb.Op (Tac.Store _) -> pos := i :: !pos
        | _ -> ())
      body;
    Array.of_list (List.rev !pos)
  in
  (* ---- relevance: temps whose boolean value feeds guard matching ---- *)
  let relevant = ref Temp.Set.empty in
  let frontier = ref [] in
  let mark t =
    if not (Temp.Set.mem t !relevant) then begin
      relevant := Temp.Set.add t !relevant;
      frontier := t :: !frontier
    end
  in
  List.iter
    (fun hi ->
      List.iter mark (Hb.guard_uses hi.Hb.guard);
      match hi.Hb.hop with
      | Hb.Sand { a; b; _ } ->
          mark a;
          mark b
      | _ -> ())
    body;
  List.iter (fun ex -> List.iter mark (Hb.guard_uses ex.Hb.eguard)) h.Hb.hexits;
  let mark_op = function Tac.T t -> mark t | Tac.C _ -> () in
  while !frontier <> [] do
    let work = !frontier in
    frontier := [];
    List.iter
      (fun t ->
        match Temp.Map.find_opt t sites with
        | None -> ()
        | Some ss ->
            List.iter
              (fun i ->
                match barr.(i).Hb.hop with
                | Hb.Op (Tac.Un { op = O.Mov | O.Not | O.Neg; a; _ }) ->
                    mark_op a
                | Hb.Sand { a; b; _ } ->
                    mark a;
                    mark b
                | _ -> ())
              ss)
      work
  done;
  let relevant = !relevant in
  (* ---- variables ---- *)
  let m = Bdd.create ?budget () in
  let vars = ref [] in
  let count = ref 0 in
  let alloc t site =
    let pos = !count in
    incr count;
    vars := (t, site) :: !vars;
    pos
  in
  let key_tbl = Hashtbl.create 16 in
  let site_var = Array.make len None in
  let livein_var = Hashtbl.create 16 in
  let cmp_key (c : Tac.instr) =
    match c with
    | Tac.Cmp { cond; fp; a; b; _ } ->
        let oa = origin sites barr a and ob = origin sites barr b in
        if fp then Some (`F (cond, oa, ob), false)
        else
          let cond, oa, ob =
            if compare oa ob > 0 then (Gate.swap_cond cond, ob, oa)
            else (cond, oa, ob)
          in
          let cond, neg = Gate.normalize_cond cond in
          Some (`I (cond, oa, ob), neg)
    | _ -> None
  in
  Array.iteri
    (fun i hi ->
      match Hb.hop_def hi.Hb.hop with
      | Some d when Temp.Set.mem d relevant -> (
          match hi.Hb.hop with
          | Hb.Op (Tac.Un { op = O.Mov | O.Not | O.Neg; _ }) | Hb.Sand _ ->
              () (* derived *)
          | Hb.Op (Tac.Cmp _ as c) -> (
              match cmp_key c with
              | Some (key, neg) ->
                  let pos =
                    match Hashtbl.find_opt key_tbl key with
                    | Some pos -> pos
                    | None ->
                        let pos = alloc d (Some i) in
                        Hashtbl.replace key_tbl key pos;
                        pos
                  in
                  site_var.(i) <- Some (pos, neg)
              | None -> site_var.(i) <- Some (alloc d (Some i), false))
          | _ -> site_var.(i) <- Some (alloc d (Some i), false))
      | _ -> ())
    barr;
  Temp.Set.iter
    (fun t ->
      if not (Temp.Map.mem t sites) then
        Hashtbl.replace livein_var t (alloc t None))
    relevant;
  (* ---- fixpoint over site fire regions and values ---- *)
  let g =
    {
      m;
      body = barr;
      sites;
      store_positions;
      e = Array.make len Bdd.False;
      svt = Array.make len Bdd.False;
      svu = Array.make len Bdd.False;
      site_var;
      livein_var;
      vars = Array.of_list (List.rev !vars);
      nvars = !count;
    }
  in
  let step i (hi : Hb.hinstr) =
    let gm = guard_matched g hi.Hb.guard in
    g.e.(i) <- Bdd.conj m gm (fire_unguarded g i);
    match site_var.(i) with
    | Some (pos, neg) ->
        g.svt.(i) <- (if neg then Bdd.nvar m pos else Bdd.var m pos);
        g.svu.(i) <- Bdd.False
    | None -> (
        match hi.Hb.hop with
        | Hb.Op (Tac.Un { op = O.Mov; a; _ }) ->
            let vt, vu = op_val g a in
            g.svt.(i) <- vt;
            g.svu.(i) <- vu
        | Hb.Op (Tac.Un { op = O.Not; a; _ }) ->
            let vt, vu = op_val g a in
            g.svt.(i) <-
              Bdd.conj m (op_avail g a)
                (Bdd.conj m (Bdd.neg m vt) (Bdd.neg m vu));
            g.svu.(i) <- vu
        | Hb.Op (Tac.Un { op = O.Neg; a; _ }) ->
            let vt, vu = op_val g a in
            g.svt.(i) <- vt;
            g.svu.(i) <- vu
        | Hb.Sand { a; b; _ } ->
            let vta, vua = op_val g (Tac.T a) in
            let vtb, vub = op_val g (Tac.T b) in
            let ta = Bdd.conj m vta (Bdd.neg m vua) in
            g.svt.(i) <- Bdd.conj m ta vtb;
            g.svu.(i) <- Bdd.disj m vua (Bdd.conj m ta vub)
        | _ ->
            (* non-relevant def: value never queried by a guard *)
            g.svu.(i) <- Bdd.True)
  in
  let snapshot () =
    Array.append (Array.map Bdd.uid g.e)
      (Array.append (Array.map Bdd.uid g.svt) (Array.map Bdd.uid g.svu))
  in
  (* when every site's uses are defined only by earlier sites (or are
     live-ins), body order is a dependence order and one pass computes
     the fixpoint; otherwise rounds until nothing changes *)
  let ordered =
    let ok = ref true in
    Array.iteri
      (fun i hi ->
        List.iter
          (fun t ->
            match Temp.Map.find_opt t sites with
            | Some ss -> if List.exists (fun j -> j >= i) ss then ok := false
            | None -> ())
          (Hb.hop_uses hi))
      barr;
    !ok
  in
  let max_rounds = (2 * len) + 16 in
  let rec iterate round prev =
    if round > max_rounds then Error "fixpoint did not converge"
    else begin
      Array.iteri step barr;
      let cur = snapshot () in
      if cur = prev then Ok () else iterate (round + 1) cur
    end
  in
  match
    if ordered then Ok (Array.iteri step barr) else iterate 0 (snapshot ())
  with
  | exception Bdd.Budget -> Error "BDD node budget exceeded"
  | Error msg -> Error msg
  | Ok () -> Ok g
