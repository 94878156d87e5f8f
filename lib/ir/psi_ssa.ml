(* Psi-SSA over the guarded hyperblock IR (de Ferrière).

   A hyperblock after if-conversion is already in a pred-OR dataflow
   form: a temp may have several guarded definitions, and a consumer
   receives whichever one fires.  Psi-SSA makes that merge explicit:
   every multi-definition temp [x] becomes a psi-node

       x = psi(v1 [g1], v2 [g2], ..., nullw [gk], ...)

   whose arguments are the original defs, each carrying the predicate
   under which it delivers.  The passes that use it (opt_path,
   opt_ineff) only read that form and none rewrites code in it, so de
   Ferrière's versioned form, with each def renamed, is never built.
   Two layers live here:

   1. the *view* — predicate-aware def-use chains (data / guard /
      exit-guard / block-output uses) and the psi argument lists,
      computed without mutating the block.  Optimization passes
      (opt_path) consume this instead of hand-rolled bookkeeping.
   2. the *ineffectuality analysis* — on top of the shared gating model
      ([Pgate]), a backward fixpoint computing per def site the region
      [eff(i)] of enumeration assignments on which the site's firing
      can still contribute to a block obligation (a store, an explicit
      null, a block output, or an exit decision).  A site with
      [eff = False] is provably ineffectual: deleting it cannot change
      any obligation on any path.  A guarded site whose unguarded fire
      region already equals its guarded one carries an ineffectual
      predicate delivery: the guard can be dropped (the BDD-implication
      generalization of opt_fanout's syntactic rule).

   Effectuality rules (all intersected with the site's fire region,
   so eff(i) <= e(i) always):

     - obligation sites (Store, Null_write, Null_store), defs of block
       output producers and defs of exit-guard predicates are roots:
       eff(i) = e(i).  Exit feeders are fully live because the branch
       partition must be preserved bit-for-bit.
     - a def consumed as a *guard* (or as a sand operand — sand both
       short-circuits on and stores its operands' values) by a consumer
       that is effectual somewhere is fully live: eff(i) = e(i).
       Guards read values, and a predicate delivery changes whether the
       consumer fires at all, so partial deadness does not transfer.
     - a def consumed as *data* by site j contributes e(i) /\ eff(j):
       a token that only ever feeds ineffectual firings is itself
       ineffectual.

   Deletion soundness (why removing all eff=False sites at once is
   safe) rests on eff <= e and the rules above: for any surviving site
   j and deleted feeder i, either i fed j's guard/sand (then j
   surviving forced eff(i) = e(i), so i was only deleted if e(i) =
   False — it never fired) or i fed j data with e(i) /\ eff(j) =
   False — every firing of j that i's token enabled was ineffectual,
   and obligation sites (eff = e) never were.  The one hazard is
   *emptying* a def-site list: [Pgate] models a temp with no in-block
   producer as an always-available live-in (codegen emits a register
   read), so deleting the last def of a temp still named by a
   surviving guard, an exit guard, or an hout would change the model.
   The consumer policy in opt_ineff keeps one (never-firing) def in
   that case. *)

module Hb = Hblock

(* ---------------- the view: predicate-aware def-use chains -------- *)

type use =
  | Data of int  (** data operand of body site *)
  | Guard of int  (** guard predicate of body site *)
  | Exit_guard of int  (** predicate of the i-th exit *)
  | Out of Temp.t  (** producer of canonical block output *)

type psi_arg = {
  asite : int;  (** body position of the argument's def or null *)
  aguard : Hb.guard option;  (** predicate under which it delivers *)
  anull : bool;  (** explicit null delivery (Null_write) *)
}

type view = {
  vbody : Hb.hinstr array;
  vsites : int list Temp.Map.t;  (** def sites per temp, body order *)
  vuses : use list Temp.Map.t;  (** predicate-aware use chains *)
  vpreds : Temp.Set.t;  (** temps consumed by any guard *)
  vpsis : psi_arg list Temp.Map.t;  (** psi-node per merged temp *)
}

let view (h : Hb.t) : view =
  let vbody = Array.of_list h.Hb.body in
  let vsites = Hb.def_sites h in
  let uses = ref Temp.Map.empty in
  let add_use t u =
    uses :=
      Temp.Map.update t
        (fun l -> Some (u :: Option.value ~default:[] l))
        !uses
  in
  Array.iteri
    (fun i hi ->
      List.iter (fun t -> add_use t (Data i)) (Hb.data_uses hi);
      List.iter (fun t -> add_use t (Guard i)) (Hb.guard_uses hi.Hb.guard))
    vbody;
  List.iteri
    (fun i ex ->
      List.iter (fun t -> add_use t (Exit_guard i)) (Hb.guard_uses ex.Hb.eguard))
    h.Hb.hexits;
  List.iter (fun (x, prod) -> add_use prod (Out x)) h.Hb.houts;
  let vpreds =
    let s = ref Temp.Set.empty in
    let add g = List.iter (fun p -> s := Temp.Set.add p !s) (Hb.guard_uses g) in
    Array.iter (fun hi -> add hi.Hb.guard) vbody;
    List.iter (fun e -> add e.Hb.eguard) h.Hb.hexits;
    !s
  in
  (* psi-nodes: every temp delivered by more than one site (guarded
     versions and explicit nulls together) *)
  let deliveries = ref Temp.Map.empty in
  let add_delivery t a =
    deliveries :=
      Temp.Map.update t
        (fun l -> Some (a :: Option.value ~default:[] l))
        !deliveries
  in
  Array.iteri
    (fun i hi ->
      (match Hb.hop_def hi.Hb.hop with
      | Some d ->
          add_delivery d { asite = i; aguard = hi.Hb.guard; anull = false }
      | None -> ());
      match hi.Hb.hop with
      | Hb.Null_write t ->
          add_delivery t { asite = i; aguard = hi.Hb.guard; anull = true }
      | _ -> ())
    vbody;
  let vpsis =
    Temp.Map.filter_map
      (fun _ args ->
        match args with
        | [] | [ _ ] -> None
        | args ->
            Some (List.sort (fun a b -> compare a.asite b.asite) args))
      !deliveries
  in
  {
    vbody;
    vsites;
    vuses = Temp.Map.map List.rev !uses;
    vpreds;
    vpsis;
  }

let uses_of v t = Option.value ~default:[] (Temp.Map.find_opt t v.vuses)
let psi v t = Temp.Map.find_opt t v.vpsis

(* Can the upward data dependence chain rooted at [v] be promoted to
   unconditional execution?  Walk single-def, exception-free
   instructions; a chain root is a live-in or constant.  Returns the
   body positions whose guards must be removed, or None if promotion is
   illegal (a join, a possible fault, or a predicate definition on the
   chain). *)
let promotable_chain (vw : view) v =
  let visited = ref Temp.Set.empty in
  let acc = ref [] in
  let rec walk v =
    if Temp.Set.mem v !visited then true
    else begin
      visited := Temp.Set.add v !visited;
      match Temp.Map.find_opt v vw.vsites with
      | None | Some [] -> true (* live-in or constant: always available *)
      | Some [ i ] -> (
          match vw.vbody.(i).Hb.hop with
          | Hb.Null_write _ | Hb.Null_store _ | Hb.Sand _ -> false
          | Hb.Op instr ->
              (not (Tac.can_raise instr))
              && (not (Temp.Set.mem v vw.vpreds))
              && begin
                   acc := i :: !acc;
                   List.for_all walk (Tac.uses instr)
                 end)
      | Some _ -> false (* psi merge: carries path-dependent values *)
    end
  in
  if walk v then Some !acc else None

(* ---------------- ineffectuality --------------------------------- *)

type ineff = {
  pg : Pgate.t;
  dead : int list;  (** sites with eff = False, body order *)
  droppable : int list;
      (** surviving guarded sites whose guard is an ineffectual
          delivery: fire_unguarded = e *)
}

let ineffectuality ?budget (h : Hb.t) : (ineff, string) result =
  match Pgate.analyze ?budget h with
  | Error msg -> Error msg
  | Ok g -> (
      let body = g.Pgate.body in
      let len = Array.length body in
      let m = g.Pgate.m in
      try
        (* consumer indices per temp: full-liveness consumers (guards
           and sand operands — value- and fire-relevant) vs plain data
           consumers *)
        let full_cons = Hashtbl.create 16 and data_cons = Hashtbl.create 16 in
        let add tbl t j =
          Hashtbl.replace tbl t (j :: Option.value ~default:[] (Hashtbl.find_opt tbl t))
        in
        Array.iteri
          (fun j hi ->
            List.iter (fun t -> add full_cons t j) (Hb.guard_uses hi.Hb.guard);
            match hi.Hb.hop with
            | Hb.Sand { a; b; _ } ->
                add full_cons a j;
                add full_cons b j
            | _ -> List.iter (fun t -> add data_cons t j) (Hb.data_uses hi))
          body;
        let out_producers =
          List.fold_left
            (fun s (_, prod) -> Temp.Set.add prod s)
            Temp.Set.empty h.Hb.houts
        in
        let exit_preds =
          List.fold_left
            (fun s ex ->
              List.fold_left
                (fun s p -> Temp.Set.add p s)
                s
                (Hb.guard_uses ex.Hb.eguard))
            Temp.Set.empty h.Hb.hexits
        in
        let root = Array.make len false in
        Array.iteri
          (fun i hi ->
            (match hi.Hb.hop with
            | Hb.Op (Tac.Store _) | Hb.Null_write _ | Hb.Null_store _ ->
                root.(i) <- true
            | _ -> ());
            match Hb.hop_def hi.Hb.hop with
            | Some d
              when Temp.Set.mem d out_producers || Temp.Set.mem d exit_preds
              ->
                root.(i) <- true
            | _ -> ())
          body;
        let eff = Array.make len Bdd.False in
        let step i hi =
          let e = g.Pgate.e.(i) in
          let acc = ref (if root.(i) then e else Bdd.False) in
          (match Hb.hop_def hi.Hb.hop with
          | None -> ()
          | Some d ->
              List.iter
                (fun j ->
                  if not (Bdd.is_false eff.(j)) then acc := Bdd.disj m !acc e)
                (Option.value ~default:[] (Hashtbl.find_opt full_cons d));
              List.iter
                (fun j -> acc := Bdd.disj m !acc (Bdd.conj m e eff.(j)))
                (Option.value ~default:[] (Hashtbl.find_opt data_cons d)));
          eff.(i) <- !acc
        in
        let snapshot () = Array.map Bdd.uid eff in
        let max_rounds = (2 * len) + 16 in
        let rec iterate round prev =
          if round > max_rounds then Error "fixpoint did not converge"
          else begin
            Array.iteri step body;
            let cur = snapshot () in
            if cur = prev then Ok () else iterate (round + 1) cur
          end
        in
        match iterate 0 (snapshot ()) with
        | Error msg -> Error msg
        | Ok () ->
            let dead = ref [] and droppable = ref [] in
            Array.iteri
              (fun i hi ->
                if Bdd.is_false eff.(i) then dead := i :: !dead
                else if
                  hi.Hb.guard <> None
                  && Bdd.equal (Pgate.fire_unguarded g i) g.Pgate.e.(i)
                then droppable := i :: !droppable)
              body;
            Ok
              {
                pg = g;
                dead = List.rev !dead;
                droppable = List.rev !droppable;
              }
      with Bdd.Budget -> Error "BDD node budget exceeded")
