(* Exhaustive cross-validation of ineffectuality verdicts.

   [Edge_ir.Psi_ssa.ineffectuality] proves sites dead (and guards
   droppable) symbolically, with BDDs over the block's enumeration
   variables.  This module re-proves the claims the way the fuzz
   enumerator re-proves the lattice checker: enumerate every assignment
   of those variables and evaluate the gating semantics *concretely*
   (one bit per assignment, 32 per word in the layout of [Lanes], a
   fixpoint over the same step rules, then a concrete backward
   effectuality pass).  It shares the variable
   *allocation* with [Pgate] — which sites and live-ins get variables,
   and the compare-sharing — but none of the BDD machinery, so a bug in
   BDD construction or in the symbolic fixpoint shows up as a
   disagreement here.

   The contract is zero false positives: every site the plan deletes
   must be concretely ineffectual on EVERY assignment (and, if it can
   fault, must concretely never fire), and every guard the plan drops
   must leave the concrete fire region bit-identical on EVERY
   assignment.  A disagreement renders as a [check[pass=opt_ineff ...]]
   diagnostic, which the oracle classifies as a Checker breach.

   Blocks whose variable count exceeds [max_vars] are skipped — the
   exponential oracle excuses itself, it never guesses. *)

module Hb = Edge_ir.Hblock
module Tac = Edge_ir.Tac
module Temp = Edge_ir.Temp
module O = Edge_isa.Opcode
module Pg = Edge_ir.Pgate

let ( let* ) = Result.bind
let default_max_vars = 10

(* Concrete per-site state for one chunk: fired / value-true /
   value-underivable, one lane per assignment. *)
type state = {
  full : int;
  vars : int array;  (** [Lanes.var_mask] of each variable *)
  e : int array;
  svt : int array;
  svu : int array;
}

let avail (g : Pg.t) (st : state) t =
  match Temp.Map.find_opt t g.Pg.sites with
  | None -> st.full
  | Some ss -> List.fold_left (fun m i -> m lor st.e.(i)) 0 ss

let temp_val (g : Pg.t) (st : state) t =
  match Temp.Map.find_opt t g.Pg.sites with
  | None -> (
      match Hashtbl.find_opt g.Pg.livein_var t with
      | Some pos -> (st.vars.(pos), 0)
      | None -> (0, st.full))
  | Some ss ->
      List.fold_left
        (fun (vt, vu) i ->
          ( vt lor (st.e.(i) land st.svt.(i)),
            vu lor (st.e.(i) land st.svu.(i)) ))
        (0, 0) ss

let op_val g st = function
  | Tac.C c -> ((if Int64.logand c 1L <> 0L then st.full else 0), 0)
  | Tac.T t -> temp_val g st t

let op_avail g st = function Tac.C _ -> st.full | Tac.T t -> avail g st t

(* lanes on which neither value-true nor value-underivable holds *)
let neither st vt vu = st.full land lnot (vt lor vu)

let guard_matched g st = function
  | None -> st.full
  | Some gd ->
      List.fold_left
        (fun m p ->
          let vt, vu = temp_val g st p in
          let pol =
            if gd.Hb.gpol then vt land lnot vu else neither st vt vu
          in
          m lor (avail g st p land pol))
        0 gd.Hb.gpreds

(* fire region of a site with its explicit guard ignored: data
   availability alone (sand short-circuits on a false left operand) *)
let fire_unguarded g st i =
  match g.Pg.body.(i).Hb.hop with
  | Hb.Sand { a; b; _ } ->
      let vt, vu = temp_val g st a in
      avail g st a land (neither st vt vu lor avail g st b)
  | _ ->
      List.fold_left
        (fun m t -> m land avail g st t)
        st.full
        (Hb.data_uses g.Pg.body.(i))

(* Evaluate the gating fixpoint concretely for the lanes of chunk [c] —
   the boolean twin of [Pgate.analyze]'s step function.  Lanes never
   interact, and a round that leaves a lane unchanged leaves it at a
   fixpoint of the round, so the chunk stops at its slowest lane's
   round: it fails exactly when one of its assignments needs more than
   [max_rounds]. *)
let eval_chunk (g : Pg.t) c : (state, string) result =
  let body = g.Pg.body in
  let len = Array.length body in
  let full = Lanes.full_lanes g.Pg.nvars in
  let st =
    {
      full;
      vars = Array.init g.Pg.nvars (Lanes.var_mask ~full c);
      e = Array.make len 0;
      svt = Array.make len 0;
      svu = Array.make len 0;
    }
  in
  let changed = ref false in
  let set a i v =
    if a.(i) <> v then begin
      a.(i) <- v;
      changed := true
    end
  in
  let step i hi =
    set st.e i (guard_matched g st hi.Hb.guard land fire_unguarded g st i);
    match g.Pg.site_var.(i) with
    | Some (pos, neg) ->
        let v = st.vars.(pos) in
        set st.svt i (if neg then full land lnot v else v);
        set st.svu i 0
    | None -> (
        match hi.Hb.hop with
        | Hb.Op (Tac.Un { op = O.Mov | O.Neg; a; _ }) ->
            let vt, vu = op_val g st a in
            set st.svt i vt;
            set st.svu i vu
        | Hb.Op (Tac.Un { op = O.Not; a; _ }) ->
            let vt, vu = op_val g st a in
            set st.svt i (op_avail g st a land neither st vt vu);
            set st.svu i vu
        | Hb.Sand { a; b; _ } ->
            let vta, vua = temp_val g st a in
            let vtb, vub = temp_val g st b in
            let ta = vta land lnot vua in
            set st.svt i (ta land vtb);
            set st.svu i (vua lor (ta land vub))
        | _ -> set st.svu i full)
  in
  let max_rounds = (2 * len) + 16 in
  let rec iterate round =
    if round > max_rounds then Error "concrete fixpoint did not converge"
    else begin
      changed := false;
      Array.iteri step body;
      if !changed then iterate (round + 1) else Ok st
    end
  in
  iterate 0

let show_assignment (g : Pg.t) a =
  "["
  ^ String.concat " "
      (List.init g.Pg.nvars (fun v ->
           Printf.sprintf "%s=%d" (Pg.name g v) ((a lsr v) land 1)))
  ^ "]"

(* The concrete backward effectuality: same roots and propagation rules
   as [Psi_ssa.ineffectuality], evaluated on lanes.  [eff.(i).(c)] —
   the lanes of chunk [c] on which site [i]'s firing can still reach an
   obligation.  A least fixpoint of a monotone system, so the order of
   the updates does not change it. *)
let concrete_eff (h : Hb.t) (g : Pg.t) (states : state array) =
  let body = g.Pg.body in
  let len = Array.length body in
  let n_chunks = Array.length states in
  let full_cons = Hashtbl.create 16 and data_cons = Hashtbl.create 16 in
  let add tbl t j =
    Hashtbl.replace tbl t
      (j :: Option.value ~default:[] (Hashtbl.find_opt tbl t))
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
      | Some d when Temp.Set.mem d out_producers || Temp.Set.mem d exit_preds
        ->
          root.(i) <- true
      | _ -> ())
    body;
  let eff = Array.init len (fun _ -> Array.make n_chunks 0) in
  let anywhere j = Array.exists (fun m -> m <> 0) eff.(j) in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to len - 1 do
      let cons_full, cons_data =
        match Hb.hop_def body.(i).Hb.hop with
        | None -> ([], [])
        | Some d ->
            ( Option.value ~default:[] (Hashtbl.find_opt full_cons d),
              Option.value ~default:[] (Hashtbl.find_opt data_cons d) )
      in
      let full_live = root.(i) || List.exists anywhere cons_full in
      for c = 0 to n_chunks - 1 do
        let live =
          if full_live then states.(c).full
          else List.fold_left (fun m j -> m lor eff.(j).(c)) 0 cons_data
        in
        let m = eff.(i).(c) lor (states.(c).e.(i) land live) in
        if m <> eff.(i).(c) then begin
          eff.(i).(c) <- m;
          changed := true
        end
      done
    done
  done;
  eff

let breach h where msg =
  Edge_check.Diag.to_string
    (Edge_check.Diag.make ~pass:"opt_ineff" ~block:h.Hb.hname ~where
       Edge_check.Diag.Structure
       ("ineffectuality cross-validation breach: " ^ msg))

(* Re-prove a plan by enumeration.  [Ok ()] also covers the excused
   skips (too many variables, inconclusive analysis) — the enumerator
   never guesses. *)
let check_plan ?(max_vars = default_max_vars) (h : Hb.t)
    (p : Dfp.Opt_ineff.plan) : (unit, string) result =
  match Pg.analyze h with
  | Error _ -> Ok () (* symbolic side skipped too: nothing was claimed *)
  | Ok g ->
      if g.Pg.nvars > max_vars then Ok ()
      else begin
        let n_chunks = Lanes.chunks g.Pg.nvars in
        let rec eval_all acc c =
          if c >= n_chunks then Ok (Array.of_list (List.rev acc))
          else
            match eval_chunk g c with
            | Error e -> Error (breach h "body" e)
            | Ok st -> eval_all (st :: acc) (c + 1)
        in
        let* states = eval_all [] 0 in
        let eff = concrete_eff h g states in
        let breach_on i what a =
          Error
            (breach h
               (Printf.sprintf "I%d" i)
               (Printf.sprintf "%s %s" what (show_assignment g a)))
        in
        let check_dead i =
          let can_fault =
            match g.Pg.body.(i).Hb.hop with
            | Hb.Op instr -> Tac.can_raise instr
            | _ -> false
          in
          match Lanes.first_asg n_chunks (fun c -> eff.(i).(c)) with
          | Some a ->
              breach_on i "site deleted as ineffectual but contributes on" a
          | None -> (
              if not can_fault then Ok ()
              else
                (* a faulting site may only be deleted if it never fires *)
                match Lanes.first_asg n_chunks (fun c -> states.(c).e.(i)) with
                | None -> Ok ()
                | Some a ->
                    breach_on i "deleted site can fault and still fires on" a)
        in
        let check_drop i =
          match
            Lanes.first_asg n_chunks (fun c ->
                fire_unguarded g states.(c) i lxor states.(c).e.(i))
          with
          | None -> Ok ()
          | Some a ->
              breach_on i "guard dropped but the fire region changes on" a
        in
        let rec all f = function
          | [] -> Ok ()
          | i :: rest -> (
              match f i with Ok () -> all f rest | Error _ as e -> e)
        in
        let* () = all check_dead p.Dfp.Opt_ineff.pdead in
        all check_drop p.Dfp.Opt_ineff.pdrops
      end

(* Install the enumerator as [Opt_ineff]'s cross-validation hook: every
   plan computed by any compile in this process is re-proved before it
   is applied.  Module-init so worker domains inherit it.  The hook
   still receives every plan; a plan already proved on an identical
   block of the same program reuses that verdict (see
   [Edge_check.Scope]). *)
let install () =
  let tag = Printf.sprintf "enum max_vars=%d" default_max_vars in
  Dfp.Opt_ineff.cross_validate :=
    Some
      (fun h p ->
        Edge_check.Scope.verdict ~tag (h, p) (fun () ->
            Result.map (fun () -> false) (check_plan h p))
        |> Result.map ignore)
