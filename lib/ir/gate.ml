(* The gating abstraction shared by the exponential path enumerator
   (lib/fuzz Validate) and the polynomial predicate-lattice checker
   (lib/check): which sources of an encoded block carry a boolean that
   predicate matching depends on, and which of those sources share one
   enumeration variable.

   Keeping this in one place is load-bearing for the checker-vs-
   enumerator cross-validation contract: both analyses quantify over
   exactly the same variables with exactly the same sharing (equal tests
   share a variable, complementary integer tests share it negated), so
   "the lattice checker flags a superset-or-equal of the enumerator and
   never flags an enumerator-clean block" is a statement about two
   evaluation strategies of the same abstraction, not two abstractions. *)

module B = Edge_isa.Block
module I = Edge_isa.Instr
module O = Edge_isa.Opcode
module T = Edge_isa.Target

(* sources whose boolean value matters: anything targeting a predicate
   slot, plus (transitively through moves and sand operands) the
   producers those values derive from *)
let boolean_relevant (b : B.t) : bool array * bool array =
  let n = Array.length b.B.instrs in
  let instr_rel = Array.make n false in
  let read_rel = Array.make (Array.length b.B.reads) false in
  (* producers of each instruction's data operands, by instruction id:
     instructions and read slots *)
  let instr_prods = Array.make n [] and read_prods = Array.make n [] in
  let propagates = Array.make n false in
  let scan add targets =
    List.iter
      (function
        | T.To_instr { id = d; slot = T.Left | T.Right } when d >= 0 && d < n ->
            add d
        | _ -> ())
      targets
  in
  Array.iter
    (fun (i : I.t) ->
      scan (fun d -> instr_prods.(d) <- i.I.id :: instr_prods.(d)) i.I.targets;
      match i.I.opcode with
      | O.Un (O.Mov | O.Not | O.Neg) | O.Mov4 | O.Sand ->
          propagates.(i.I.id) <- true
      | _ -> ())
    b.B.instrs;
  Array.iteri
    (fun r (rd : B.read) ->
      scan (fun d -> read_prods.(d) <- r :: read_prods.(d)) rd.B.rtargets)
    b.B.reads;
  (* a relevant value-propagating instruction waits here until its
     producers are marked *)
  let work = ref [] in
  let mark id =
    if not instr_rel.(id) then begin
      instr_rel.(id) <- true;
      if propagates.(id) then work := id :: !work
    end
  in
  let mark_producers_of id =
    List.iter mark instr_prods.(id);
    List.iter (fun r -> read_rel.(r) <- true) read_prods.(id)
  in
  (* seed: predicate producers, and sand operand producers (sand's
     short-circuit firing rule depends on its left value) *)
  let targets_pred =
    List.exists (function T.To_instr { slot = T.Pred; _ } -> true | _ -> false)
  in
  Array.iter (fun (i : I.t) -> if targets_pred i.I.targets then mark i.I.id)
    b.B.instrs;
  Array.iteri
    (fun r (rd : B.read) -> if targets_pred rd.B.rtargets then read_rel.(r) <- true)
    b.B.reads;
  Array.iter
    (fun (i : I.t) ->
      match i.I.opcode with O.Sand -> mark_producers_of i.I.id | _ -> ())
    b.B.instrs;
  (* closure through value-propagating opcodes *)
  let rec drain () =
    match !work with
    | [] -> ()
    | id :: rest ->
        work := rest;
        mark_producers_of id;
        drain ()
  in
  drain ();
  (instr_rel, read_rel)

(* Where does the value arriving at an operand come from?  Chains of
   single-producer moves forward one token unchanged, so two operands
   with the same origin always carry equal values.  The chase stops at a
   multi-producer point (predicated alternatives), which is itself a
   stable identity: consumers fed through the same stop point still see
   the same token. *)
type origin =
  | ONode of int  (** a non-move instruction *)
  | OReg of int  (** an architectural register (any read slot of it) *)
  | OImm of int64  (** an immediate generator; keyed by value, not id *)
  | OMulti of [ `I of int | `R of int ] list
      (** predicated alternatives: whichever fires sends one token to
          every consumer, so equal producer sets mean equal values *)
  | OStop of int * T.slot  (** chase stopped at this operand *)

let operand_producers (b : B.t) =
  let tbl : (int * T.slot, [ `I of int | `R of int ] list) Hashtbl.t =
    Hashtbl.create 64
  in
  let add key v =
    Hashtbl.replace tbl key
      (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  let scan source targets =
    List.iter
      (function
        | T.To_instr { id; slot = (T.Left | T.Right) as slot } ->
            add (id, slot) source
        | _ -> ())
      targets
  in
  Array.iter (fun (i : I.t) -> scan (`I i.I.id) i.I.targets) b.B.instrs;
  Array.iter (fun (rd : B.read) -> scan (`R rd.B.reg) rd.B.rtargets) b.B.reads;
  tbl

let origin (b : B.t) prods start =
  let rec go (id, slot) seen =
    if List.mem id seen then OStop (id, slot)
    else
      match Hashtbl.find_opt prods (id, slot) with
      | Some [ `R reg ] -> OReg reg
      | Some [ `I p ] -> (
          match b.B.instrs.(p).I.opcode with
          | O.Un O.Mov | O.Mov4 -> go (p, T.Left) (id :: seen)
          | O.Movi | O.Geni -> OImm b.B.instrs.(p).I.imm
          | _ -> ONode p)
      | Some (_ :: _ :: _ as ps) -> OMulti (List.sort compare ps)
      | _ -> OStop (id, slot)
  in
  go start []

(* Complementary integer conditions: every cond is either canonical or
   the negation of a canonical one. *)
let normalize_cond = function
  | O.Eq -> (O.Eq, false)
  | O.Ne -> (O.Eq, true)
  | O.Lt -> (O.Lt, false)
  | O.Ge -> (O.Lt, true)
  | O.Le -> (O.Le, false)
  | O.Gt -> (O.Le, true)

let swap_cond = function
  | O.Eq -> O.Eq
  | O.Ne -> O.Ne
  | O.Lt -> O.Gt
  | O.Le -> O.Ge
  | O.Gt -> O.Lt
  | O.Ge -> O.Le

(* Identity of a test's outcome, up to negation: tests of the same
   condition over operands with the same origins share one enumeration
   variable, and complementary tests ([tlt i n] / [tge i n], which
   unrolled loop bounds produce in quantity) share it negated — without
   this, enumeration explores impossible assignments and reports phantom
   output starvation.  Float comparisons never merge by complement
   (NaN breaks complementarity). *)
let test_var_key b prods (i : I.t) =
  let o slot = origin b prods (i.I.id, slot) in
  match i.I.opcode with
  | O.Tst c ->
      let l = o T.Left and r = o T.Right in
      let c, l, r = if compare l r > 0 then (swap_cond c, r, l) else (c, l, r) in
      let c, neg = normalize_cond c in
      Some (`Tst (c, l, r), neg)
  | O.Tsti c ->
      let c, neg = normalize_cond c in
      Some (`Tsti (c, o T.Left, i.I.imm), neg)
  | O.Ftst c -> Some (`Ftst (c, o T.Left, o T.Right), false)
  | _ -> None

(* enumeration variables: boolean-relevant sources whose value cannot be
   derived (tests are deliberately variables — their outcome is the
   point of the analysis). Returns display names per variable and a
   lookup from node index (instr id, or instr-count + read slot) to
   (variable position, negated). *)
let variables (b : B.t) (instr_rel, read_rel) =
  let n = Array.length b.B.instrs in
  let prods = operand_producers b in
  let names = ref [] in
  let count = ref 0 in
  let key_tbl = Hashtbl.create 16 in
  let var_of : (int, int * bool) Hashtbl.t = Hashtbl.create 16 in
  let alloc name =
    let pos = !count in
    incr count;
    names := name :: !names;
    pos
  in
  let share key name neg idx =
    let pos =
      match Hashtbl.find_opt key_tbl key with
      | Some pos -> pos
      | None ->
          let pos = alloc name in
          Hashtbl.replace key_tbl key pos;
          pos
    in
    Hashtbl.replace var_of idx (pos, neg)
  in
  Array.iter
    (fun (i : I.t) ->
      if instr_rel.(i.I.id) then
        match i.I.opcode with
        | O.Movi | O.Geni | O.Null
        | O.Un (O.Mov | O.Not | O.Neg)
        | O.Mov4 | O.Sand ->
            () (* derived or constant *)
        | _ -> (
            let name = Printf.sprintf "I%d" i.I.id in
            match test_var_key b prods i with
            | Some (key, neg) -> share (`Test key) name neg i.I.id
            | None -> Hashtbl.replace var_of i.I.id (alloc name, false)))
    b.B.instrs;
  Array.iteri
    (fun r (rd : B.read) ->
      if read_rel.(r) then
        share (`Read rd.B.reg) (Printf.sprintf "g%d" rd.B.reg) false (n + r))
    b.B.reads;
  (List.rev !names, var_of, !count)

(* known parity of a constant generator's token *)
let const_parity (i : I.t) =
  match i.I.opcode with
  | O.Movi | O.Geni -> Some (Int64.logand i.I.imm 1L <> 0L)
  | _ -> None
