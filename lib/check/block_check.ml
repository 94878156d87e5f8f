(* The polynomial-time invariant checker for encoded blocks.

   Where the fuzz validator's enumerator walks all 2^k assignments of a
   block's predicate variables (capped at 11), this checker evaluates
   the same dataflow symbolically over a three-valued predicate lattice
   (true / false / underivable) whose regions are BDDs over exactly the
   enumerator's variables ([Edge_ir.Gate]).  For every producer we
   compute three characteristic formulas:

     F(p)   — the assignments on which p eventually fires,
     vt/vu  — the assignments on which its token's boolean value is
              true, resp. underivable (elsewhere it is false),
     N(p)   — the assignments on which its token is a null.

   A least fixpoint of the firing equations (mirroring the event-driven
   executor: predicate matching, sand short-circuit, LSID-ordered
   loads, null-resolved stores) then turns each path-enumeration check
   into a satisfiability question on one BDD:

     - predicate polarity: sat(F(p) ∧ vu(p)) for a predicate producer
       means some path delivers an underivable predicate;
     - predicate-OR disjointness: two match regions intersect;
     - single delivery: two producer fire regions of one operand or
       write slot intersect;
     - output completeness: the union of delivery regions for a write
       slot, store LSID, or the branch set is not the whole space;
     - exactly-one-branch: branch fire regions pairwise disjoint and
       jointly total.

   BDD sizes are bounded by a node budget; exceeding it (or a
   non-converging fixpoint, which the pointwise-monotone equations
   should never produce) yields [Skipped], never a diagnostic.

   One deliberate strictness: the enumerator only reports a null
   arriving at an *already fired* store (delivery order decides), while
   this checker flags any overlap between a store's real-fire and
   null-resolve regions.  The compiler never emits order-dependent
   store resolution, so this is a superset on buggy code and agrees on
   everything the pipeline produces. *)

module B = Edge_isa.Block
module I = Edge_isa.Instr
module O = Edge_isa.Opcode
module T = Edge_isa.Target
module E = Edge_isa.Encode
module Bdd = Edge_ir.Bdd
module Gate = Edge_ir.Gate

type outcome = Clean | Skipped of string | Diags of Diag.t list

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* anchor a validator message to its instruction/output when it leads
   with the conventional "I3:", "W0:", "R1:" prefix *)
let where_of_message msg =
  match String.index_opt msg ':' with
  | Some i when i > 1 && i < 6 -> (
      let head = String.sub msg 0 i in
      match head.[0] with
      | 'I' | 'W' | 'R' | 'S' ->
          if String.for_all (fun c -> c >= '0' && c <= '9')
               (String.sub head 1 (String.length head - 1))
          then head
          else "-"
      | _ -> "-")
  | _ -> "-"

let classify_structural msg =
  if contains msg "lsid" then Diag.Lsid
  else if contains msg "mov4" then Diag.Fanout
  else Diag.Structure

let classify_encoding msg =
  if contains msg "mov4" then Diag.Fanout else Diag.Encode

(* ---------- a block's structural facts ---------- *)

(* What both encoded-block judges, this checker and the fuzz
   validator's [Validate.block], read before they evaluate a block:
   [Block.validate]'s errors, the encode/decode round trip's, and the
   enumeration variables of [Gate].  The variables are defined only
   when every id and target is in range, which [Block.validate] reports
   otherwise.  Computed once per distinct block of the current program
   ([Scope]), whichever judge asks first. *)
type gate = {
  names : string list;
  var_of : (int, int * bool) Hashtbl.t;
      (** source index (instruction id, or instruction count + read
          slot) to (variable, negated) *)
  nvars : int;
  order : int array;
      (** instruction slots, producers before consumers when [acyclic],
          slot order otherwise *)
  acyclic : bool;
}

type facts = {
  invalid : string list;  (** [Block.validate]'s errors *)
  roundtrip : (int option * string) list;  (** [Encode.roundtrip_errors] *)
  gate : gate option;  (** [None] when an id or target is out of range *)
}

let indexable (b : B.t) =
  let n = Array.length b.B.instrs and nw = Array.length b.B.writes in
  let in_range = function
    | T.To_instr { id; _ } -> id >= 0 && id < n
    | T.To_write w -> w >= 0 && w < nw
  in
  Array.for_all
    (fun (i : I.t) -> i.I.id >= 0 && i.I.id < n && List.for_all in_range i.I.targets)
    b.B.instrs
  && Array.for_all (fun (rd : B.read) -> List.for_all in_range rd.B.rtargets) b.B.reads

(* Instruction slots, producers before consumers: an instruction's
   firing reads its operand and predicate producers, and a load's reads
   every store of a lower lsid, so those are the edges (Kahn's
   algorithm).  A target names a slot.  [None] if the graph has a
   cycle. *)
let dependence_order (b : B.t) =
  let n = Array.length b.B.instrs in
  let succs = Array.make n [] and indeg = Array.make n 0 in
  let edge p d =
    succs.(p) <- d :: succs.(p);
    indeg.(d) <- indeg.(d) + 1
  in
  Array.iteri
    (fun p (i : I.t) ->
      List.iter
        (function T.To_instr { id; _ } -> edge p id | T.To_write _ -> ())
        i.I.targets;
      match i.I.opcode with
      | O.St _ ->
          Array.iteri
            (fun d (l : I.t) ->
              match l.I.opcode with
              | O.Ld _ when i.I.lsid < l.I.lsid -> edge p d
              | _ -> ())
            b.B.instrs
      | _ -> ())
    b.B.instrs;
  let order = Array.make n 0 and len = ref 0 in
  let ready id =
    order.(!len) <- id;
    incr len
  in
  Array.iteri (fun id d -> if d = 0 then ready id) indeg;
  let head = ref 0 in
  while !head < !len do
    let p = order.(!head) in
    incr head;
    List.iter
      (fun d ->
        indeg.(d) <- indeg.(d) - 1;
        if indeg.(d) = 0 then ready d)
      succs.(p)
  done;
  if !len = n then Some order else None

type Scope.entry += Facts of facts

let facts (b : B.t) : facts =
  let key = "facts" ^ Marshal.to_string b [ Marshal.No_sharing ] in
  match Scope.find key with
  | Some (Facts f) -> f
  | _ ->
      let f =
        {
          invalid = (match B.validate b with Ok () -> [] | Error es -> es);
          roundtrip = E.roundtrip_errors b.B.instrs;
          gate =
            (if indexable b then
               let names, var_of, nvars =
                 Gate.variables b (Gate.boolean_relevant b)
               in
               let order, acyclic =
                 match dependence_order b with
                 | Some order -> (order, true)
                 | None -> (Array.init (Array.length b.B.instrs) Fun.id, false)
               in
               Some { names; var_of; nvars; order; acyclic }
             else None);
        }
      in
      Scope.add key (Facts f);
      f

(* the structural facts as diagnostics, classified into invariants *)
let structural_diags ~pass (b : B.t) (f : facts) : Diag.t list =
  let diag where invariant msg = Diag.make ~pass ~block:b.B.name ~where invariant msg in
  List.map (fun msg -> diag (where_of_message msg) (classify_structural msg) msg) f.invalid
  @ List.map
      (function
        | Some id, msg -> diag (Printf.sprintf "I%d" id) Diag.Encode msg
        | None, msg -> diag "-" (classify_encoding msg) msg)
      f.roundtrip

(* ---------- symbolic gating analysis ---------- *)

type source = Si of int | Sr of int  (* instruction id / read slot *)

let symbolic_diags ~pass (b : B.t) (g : gate) : outcome =
  let n = Array.length b.B.instrs in
  let nr = Array.length b.B.reads in
  let var_of = g.var_of in
  let names_arr = Array.of_list g.names in
  let m = Bdd.create () in
  let src_idx = function Si i -> i | Sr r -> n + r in
  (* producer tables, one entry per target occurrence (a duplicated
     target is two deliveries, as in the hardware) *)
  let data_prods : (int * T.slot, source list) Hashtbl.t = Hashtbl.create 64 in
  let pred_prods : (int, source list) Hashtbl.t = Hashtbl.create 16 in
  let write_prods : (int, source list) Hashtbl.t = Hashtbl.create 16 in
  let push tbl key v =
    Hashtbl.replace tbl key
      (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  let scan source targets =
    List.iter
      (function
        | T.To_instr { id; slot = T.Pred } -> push pred_prods id source
        | T.To_instr { id; slot } -> push data_prods (id, slot) source
        | T.To_write w -> push write_prods w source)
      targets
  in
  Array.iter (fun (i : I.t) -> scan (Si i.I.id) i.I.targets) b.B.instrs;
  Array.iteri (fun r (rd : B.read) -> scan (Sr r) rd.B.rtargets) b.B.reads;
  (* per-producer state, indexed by src_idx *)
  let f = Array.make (n + nr) Bdd.False in
  let vt = Array.make (n + nr) Bdd.False in
  let vu = Array.make (n + nr) Bdd.False in
  let nl = Array.make (n + nr) Bdd.False in
  (* fixed value of an enumeration-variable or constant source; [None]
     for derived sources whose value the fixpoint computes *)
  let fixed_value idx =
    match Hashtbl.find_opt var_of idx with
    | Some (pos, negated) ->
        Some ((if negated then Bdd.nvar m pos else Bdd.var m pos), Bdd.False)
    | None ->
        if idx < n then
          match Gate.const_parity b.B.instrs.(idx) with
          | Some true -> Some (Bdd.True, Bdd.False)
          | Some false -> Some (Bdd.False, Bdd.False)
          | None -> None
        else None
  in
  (* reads fire unconditionally *)
  Array.iteri
    (fun r _ ->
      let idx = n + r in
      f.(idx) <- Bdd.True;
      match fixed_value idx with
      | Some (t, u) ->
          vt.(idx) <- t;
          vu.(idx) <- u
      | None -> vu.(idx) <- Bdd.True)
    b.B.reads;
  let prods_of tbl key = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
  let is_store id =
    match b.B.instrs.(id).I.opcode with O.St _ -> true | _ -> false
  in
  (* delivery events at a data operand: a null reaching a store operand
     is a store-resolution event, not an operand arrival *)
  let deliveries (id, slot) =
    List.map
      (fun p ->
        let i = src_idx p in
        if is_store id then Bdd.conj m f.(i) (Bdd.neg m nl.(i)) else f.(i))
      (prods_of data_prods (id, slot))
  in
  let arrive key = Bdd.disj_list m (deliveries key) in
  let agg g key =
    Bdd.disj_list m
      (List.map
         (fun p ->
           let i = src_idx p in
           Bdd.conj m f.(i) (g i))
         (prods_of data_prods key))
  in
  let op_vt key = agg (fun i -> vt.(i)) key in
  let op_vu key = agg (fun i -> vu.(i)) key in
  let op_nl key = agg (fun i -> nl.(i)) key in
  let op_false key =
    agg (fun i -> Bdd.conj m (Bdd.neg m vt.(i)) (Bdd.neg m vu.(i))) key
  in
  let pred_ok (i : I.t) =
    if not (I.is_predicated i) then Bdd.True
    else
      Bdd.disj_list m
        (List.map
           (fun p ->
             let pi = src_idx p in
             let matches =
               match i.I.pred with
               | I.If_true -> Bdd.conj m vt.(pi) (Bdd.neg m vu.(pi))
               | I.If_false ->
                   Bdd.conj m (Bdd.neg m vt.(pi)) (Bdd.neg m vu.(pi))
               | I.Unpredicated -> Bdd.False
             in
             Bdd.conj m f.(pi) matches)
           (prods_of pred_prods i.I.id))
  in
  (* a store's real fire (both operands arrive non-null, predicate ok) *)
  let store_fire id = f.(id) in
  (* null deliveries that resolve store [id]'s lsid *)
  let store_null_events id =
    List.concat_map
      (fun slot ->
        List.filter_map
          (fun p ->
            let i = src_idx p in
            let e = Bdd.conj m f.(i) nl.(i) in
            if Bdd.is_false e then None else Some e)
          (prods_of data_prods (id, slot)))
      [ T.Left; T.Right ]
  in
  let resolved lsid =
    let events = ref [] in
    Array.iter
      (fun (i : I.t) ->
        match i.I.opcode with
        | O.St _ when i.I.lsid = lsid ->
            events := store_fire i.I.id :: store_null_events i.I.id @ !events
        | _ -> ())
      b.B.instrs;
    Bdd.disj_list m !events
  in
  let step (i : I.t) =
    let id = i.I.id in
    let pok = pred_ok i in
    let left = (id, T.Left) and right = (id, T.Right) in
    let fire =
      match i.I.opcode with
      | O.Sand ->
          Bdd.conj m pok
            (Bdd.conj m (arrive left)
               (Bdd.disj m (op_false left) (arrive right)))
      | O.St _ -> Bdd.conj m pok (Bdd.conj m (arrive left) (arrive right))
      | O.Ld _ ->
          let lower =
            List.filter (fun l -> l < i.I.lsid) b.B.store_lsids
            |> List.map resolved |> Bdd.conj_list m
          in
          Bdd.conj m pok (Bdd.conj m (arrive left) lower)
      | op ->
          let arity = O.num_operands op in
          let a = if arity >= 1 then arrive left else Bdd.True in
          let b' = if arity >= 2 then arrive right else Bdd.True in
          Bdd.conj m pok (Bdd.conj m a b')
    in
    f.(id) <- fire;
    match fixed_value id with
    | Some (t, u) ->
        vt.(id) <- t;
        vu.(id) <- u
    | None -> (
        match i.I.opcode with
        | O.Null ->
            (* a null carries value false and the null mark *)
            nl.(id) <- Bdd.True
        | O.Un O.Mov | O.Mov4 | O.Un O.Neg ->
            vt.(id) <- op_vt left;
            vu.(id) <- op_vu left;
            nl.(id) <- op_nl left
        | O.Un O.Not ->
            vt.(id) <- op_false left;
            vu.(id) <- op_vu left;
            nl.(id) <- op_nl left
        | O.Sand ->
            let ta = Bdd.conj m (op_vt left) (Bdd.neg m (op_vu left)) in
            vt.(id) <- Bdd.conj m ta (op_vt right);
            vu.(id) <- Bdd.disj m (op_vu left) (Bdd.conj m ta (op_vu right));
            nl.(id) <- op_nl left
        | _ ->
            (* a source the enumerator would call underivable *)
            vu.(id) <- Bdd.True)
  in
  let snapshot () =
    Array.append (Array.map Bdd.uid f)
      (Array.append (Array.map Bdd.uid vt)
         (Array.append (Array.map Bdd.uid vu) (Array.map Bdd.uid nl)))
  in
  (* in an acyclic graph the equations have one solution, which one
     pass in dependence order computes; several passes in id order if
     the graph has a cycle *)
  let order = Array.map (fun id -> b.B.instrs.(id)) g.order in
  let max_rounds = (2 * (n + nr)) + 16 in
  let rec iterate round prev =
    if round > max_rounds then Error "fixpoint did not converge"
    else begin
      Array.iter step order;
      let cur = snapshot () in
      if cur = prev then Ok () else iterate (round + 1) cur
    end
  in
  match
    if g.acyclic then Ok (Array.iter step order) else iterate 0 (snapshot ())
  with
  | exception Bdd.Budget -> Skipped "BDD node budget exceeded"
  | Error e -> Skipped e
  | Ok () -> (
      try
        let diags = ref [] in
        let add where invariant msg =
          diags :=
            Diag.make ~pass ~block:b.B.name ~where invariant msg :: !diags
        in
        let witness cond =
          match Bdd.any_sat cond with
          | None | Some [] -> ""
          | Some pairs ->
              Printf.sprintf " on path [%s]"
                (String.concat " "
                   (List.map
                      (fun (v, value) ->
                        Printf.sprintf "%s=%d" names_arr.(v)
                          (if value then 1 else 0))
                      pairs))
        in
        (* pairwise intersection over delivery events *)
        let pairwise events on_clash =
          let rec go = function
            | [] -> ()
            | e :: rest ->
                List.iter
                  (fun e' ->
                    let both = Bdd.conj m e e' in
                    if Bdd.sat both then on_clash both)
                  rest;
                go rest
          in
          go events
        in
        let covered events where invariant what =
          let missing = Bdd.neg m (Bdd.disj_list m events) in
          if Bdd.sat missing then
            add where invariant
              (Printf.sprintf "%s starves%s" what (witness missing))
        in
        (* predicate polarity: no underivable value may reach a
           predicate slot *)
        Hashtbl.iter
          (fun id prods ->
            List.iter
              (fun p ->
                let pi = src_idx p in
                let bad = Bdd.conj m f.(pi) vu.(pi) in
                if Bdd.sat bad then
                  add
                    (Printf.sprintf "I%d" id)
                    Diag.Polarity
                    (Printf.sprintf
                       "I%d: predicate arrives with underivable value%s" id
                       (witness bad)))
              prods)
          pred_prods;
        (* predicate-OR disjointness *)
        Array.iter
          (fun (i : I.t) ->
            if I.is_predicated i then
              let matches =
                List.map
                  (fun p ->
                    let pi = src_idx p in
                    let pol =
                      match i.I.pred with
                      | I.If_true -> Bdd.conj m vt.(pi) (Bdd.neg m vu.(pi))
                      | _ -> Bdd.conj m (Bdd.neg m vt.(pi)) (Bdd.neg m vu.(pi))
                    in
                    Bdd.conj m f.(pi) pol)
                  (prods_of pred_prods i.I.id)
              in
              pairwise matches (fun both ->
                  add
                    (Printf.sprintf "I%d" i.I.id)
                    Diag.Pred_or
                    (Printf.sprintf "I%d: two matching predicates%s" i.I.id
                       (witness both))))
          b.B.instrs;
        (* single delivery per data operand *)
        Array.iter
          (fun (i : I.t) ->
            List.iter
              (fun slot ->
                pairwise
                  (deliveries (i.I.id, slot))
                  (fun both ->
                    add
                      (Printf.sprintf "I%d" i.I.id)
                      Diag.Double_delivery
                      (Format.asprintf "I%d: operand %a delivered twice%s"
                         i.I.id T.pp_slot slot (witness both))))
              [ T.Left; T.Right ])
          b.B.instrs;
        (* write slots: exactly one token each *)
        Array.iteri
          (fun w _ ->
            let events =
              List.map
                (fun p -> f.(src_idx p))
                (prods_of write_prods w)
            in
            let where = Printf.sprintf "W%d" w in
            pairwise events (fun both ->
                add where Diag.Double_delivery
                  (Printf.sprintf "write slot %d received two tokens%s" w
                     (witness both)));
            covered events where Diag.Output_completeness
              (Printf.sprintf "write slot %d" w))
          b.B.writes;
        (* store LSIDs: resolved exactly once *)
        List.iter
          (fun lsid ->
            let events = ref [] in
            Array.iter
              (fun (i : I.t) ->
                match i.I.opcode with
                | O.St _ when i.I.lsid = lsid ->
                    events :=
                      (store_fire i.I.id :: store_null_events i.I.id) @ !events
                | _ -> ())
              b.B.instrs;
            let where = Printf.sprintf "S%d" lsid in
            pairwise !events (fun both ->
                add where Diag.Lsid
                  (Printf.sprintf "store lsid %d resolved twice%s" lsid
                     (witness both)));
            covered !events where Diag.Output_completeness
              (Printf.sprintf "store lsid %d" lsid))
          b.B.store_lsids;
        (* exactly one branch *)
        let branch_fires =
          Array.to_list b.B.instrs
          |> List.filter_map (fun (i : I.t) ->
                 if O.is_branch i.I.opcode then Some (i.I.id, f.(i.I.id))
                 else None)
        in
        pairwise (List.map snd branch_fires) (fun both ->
            add "branch" Diag.Branch
              (Printf.sprintf "two branches fired%s" (witness both)));
        covered (List.map snd branch_fires) "branch" Diag.Branch "branch";
        match List.rev !diags with [] -> Clean | ds -> Diags ds
      with Bdd.Budget -> Skipped "BDD node budget exceeded")

(* a block that passes [Block.validate] has every id and target in
   range, so its gate is defined *)
let check ~pass (b : B.t) : outcome =
  let f = facts b in
  match (structural_diags ~pass b f, f.gate) with
  | [], Some g -> symbolic_diags ~pass b g
  | ds, _ -> Diags ds
