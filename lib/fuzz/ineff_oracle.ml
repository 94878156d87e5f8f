(* Exhaustive cross-validation of ineffectuality verdicts.

   [Edge_ir.Psi_ssa.ineffectuality] proves sites dead (and guards
   droppable) symbolically, with BDDs over the block's enumeration
   variables.  This module re-proves the claims the way the fuzz
   enumerator re-proves the lattice checker: enumerate every assignment
   of those variables and evaluate the gating semantics *concretely*
   (plain booleans, a per-assignment fixpoint over the same step rules,
   then a concrete backward effectuality pass).  It shares the variable
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

(* Concrete per-site state for one assignment: fired / value-true /
   value-underivable booleans. *)
type state = { e : bool array; svt : bool array; svu : bool array }

let avail (g : Pg.t) (st : state) t =
  match Temp.Map.find_opt t g.Pg.sites with
  | None -> true
  | Some ss -> List.exists (fun i -> st.e.(i)) ss

let temp_val (g : Pg.t) (st : state) (asg : bool array) t =
  match Temp.Map.find_opt t g.Pg.sites with
  | None -> (
      match Hashtbl.find_opt g.Pg.livein_var t with
      | Some pos -> (asg.(pos), false)
      | None -> (false, true))
  | Some ss ->
      ( List.exists (fun i -> st.e.(i) && st.svt.(i)) ss,
        List.exists (fun i -> st.e.(i) && st.svu.(i)) ss )

let op_val g st asg = function
  | Tac.C c -> (Int64.logand c 1L <> 0L, false)
  | Tac.T t -> temp_val g st asg t

let op_avail g st = function Tac.C _ -> true | Tac.T t -> avail g st t

let is_false_op g st asg op =
  let vt, vu = op_val g st asg op in
  (not vt) && not vu

let guard_matched g st asg = function
  | None -> true
  | Some gd ->
      List.exists
        (fun p ->
          let vt, vu = temp_val g st asg p in
          let pol = if gd.Hb.gpol then vt && not vu else (not vt) && not vu in
          avail g st p && pol)
        gd.Hb.gpreds

(* fire region of a site with its explicit guard ignored: data
   availability alone (sand short-circuits on a false left operand) *)
let fire_unguarded g st asg i =
  match g.Pg.body.(i).Hb.hop with
  | Hb.Sand { a; b; _ } ->
      avail g st a && (is_false_op g st asg (Tac.T a) || avail g st b)
  | _ -> List.for_all (fun t -> avail g st t) (Hb.data_uses g.Pg.body.(i))

(* Evaluate the gating fixpoint concretely for one assignment — the
   boolean twin of [Pgate.analyze]'s step function. *)
let eval_assignment (g : Pg.t) (asg : bool array) : (state, string) result =
  let body = g.Pg.body in
  let len = Array.length body in
  let st =
    {
      e = Array.make len false;
      svt = Array.make len false;
      svu = Array.make len false;
    }
  in
  let step i hi =
    st.e.(i) <- guard_matched g st asg hi.Hb.guard && fire_unguarded g st asg i;
    match g.Pg.site_var.(i) with
    | Some (pos, neg) ->
        st.svt.(i) <- (if neg then not asg.(pos) else asg.(pos));
        st.svu.(i) <- false
    | None -> (
        match hi.Hb.hop with
        | Hb.Op (Tac.Un { op = O.Mov; a; _ }) ->
            let vt, vu = op_val g st asg a in
            st.svt.(i) <- vt;
            st.svu.(i) <- vu
        | Hb.Op (Tac.Un { op = O.Not; a; _ }) ->
            let vt, vu = op_val g st asg a in
            st.svt.(i) <- op_avail g st a && (not vt) && not vu;
            st.svu.(i) <- vu
        | Hb.Op (Tac.Un { op = O.Neg; a; _ }) ->
            let vt, vu = op_val g st asg a in
            st.svt.(i) <- vt;
            st.svu.(i) <- vu
        | Hb.Sand { a; b; _ } ->
            let vta, vua = op_val g st asg (Tac.T a) in
            let vtb, vub = op_val g st asg (Tac.T b) in
            let ta = vta && not vua in
            st.svt.(i) <- ta && vtb;
            st.svu.(i) <- vua || (ta && vub)
        | _ -> st.svu.(i) <- true)
  in
  let snapshot () = (Array.copy st.e, Array.copy st.svt, Array.copy st.svu) in
  let max_rounds = (2 * len) + 16 in
  let rec iterate round prev =
    if round > max_rounds then Error "concrete fixpoint did not converge"
    else begin
      Array.iteri step body;
      let cur = snapshot () in
      if cur = prev then Ok st else iterate (round + 1) cur
    end
  in
  iterate 0 (snapshot ())

let show_assignment (g : Pg.t) (asg : bool array) =
  if Array.length asg = 0 then "[]"
  else
    "["
    ^ String.concat " "
        (List.init (Array.length asg) (fun v ->
             Printf.sprintf "%s=%d" g.Pg.names.(v) (if asg.(v) then 1 else 0)))
    ^ "]"

(* The concrete backward effectuality: same roots and propagation rules
   as [Psi_ssa.ineffectuality], evaluated per assignment on booleans.
   [eff.(i).(a)] — can site [i]'s firing on assignment [a] still reach
   an obligation? *)
let concrete_eff (h : Hb.t) (g : Pg.t) (states : state array) =
  let body = g.Pg.body in
  let len = Array.length body in
  let n_asg = Array.length states in
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
  let eff = Array.init len (fun _ -> Array.make n_asg false) in
  let anywhere j = Array.exists Fun.id eff.(j) in
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
      for a = 0 to n_asg - 1 do
        if (not eff.(i).(a)) && states.(a).e.(i) then
          if full_live || List.exists (fun j -> eff.(j).(a)) cons_data then begin
            eff.(i).(a) <- true;
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
        let n_asg = 1 lsl g.Pg.nvars in
        let asgs =
          Array.init n_asg (fun a ->
              Array.init g.Pg.nvars (fun v -> (a lsr v) land 1 = 1))
        in
        let rec eval_all acc a =
          if a >= n_asg then Ok (Array.of_list (List.rev acc))
          else
            match eval_assignment g asgs.(a) with
            | Error e -> Error (breach h "body" e)
            | Ok st -> eval_all (st :: acc) (a + 1)
        in
        let* states = eval_all [] 0 in
        let eff = concrete_eff h g states in
        let first_asg pred =
          let r = ref None in
          for a = n_asg - 1 downto 0 do
            if pred a then r := Some a
          done;
          !r
        in
        let check_dead i =
          let can_fault =
            match g.Pg.body.(i).Hb.hop with
            | Hb.Op instr -> Tac.can_raise instr
            | _ -> false
          in
          match first_asg (fun a -> eff.(i).(a)) with
          | Some a ->
              Error
                (breach h
                   (Printf.sprintf "I%d" i)
                   (Printf.sprintf
                      "site deleted as ineffectual but contributes on %s"
                      (show_assignment g asgs.(a))))
          | None -> (
              if not can_fault then Ok ()
              else
                (* a faulting site may only be deleted if it never fires *)
                match first_asg (fun a -> states.(a).e.(i)) with
                | None -> Ok ()
                | Some a ->
                    Error
                      (breach h
                         (Printf.sprintf "I%d" i)
                         (Printf.sprintf
                            "deleted site can fault and still fires on %s"
                            (show_assignment g asgs.(a)))))
        in
        let check_drop i =
          match
            first_asg (fun a ->
                fire_unguarded g states.(a) asgs.(a) i <> states.(a).e.(i))
          with
          | None -> Ok ()
          | Some a ->
              Error
                (breach h
                   (Printf.sprintf "I%d" i)
                   (Printf.sprintf
                      "guard dropped but the fire region changes on %s"
                      (show_assignment g asgs.(a))))
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
