(* Static validation of compiled artifacts against the paper's ISA
   invariants, beyond the structural checks in [Edge_isa.Block.validate]:

   - structural well-formedness (delegated to Block/Program.validate):
     instruction/read/write/LSID caps, 2-bit predicate-field legality,
     target arity and range, every operand/output has a producer;
   - binary encodability: every block body must survive an
     encode/decode round trip bit-exactly (Figure 2 layout), which also
     enforces the reserved-target rule (no consumer at I0's left
     operand, whose encoding collides with "no target") and the 9-bit
     immediate limit;
   - predicate-path completeness: enumerating the outcomes of the
     block's predicate sources, every path must produce a token
     (possibly null) for every write slot, resolve every declared store
     LSID, and fire exactly one branch — the block-output consistency
     the hardware's completion-by-output-counting relies on
     (Sections 3-4) — and no path may deliver two tokens to one operand
     or two matching predicates to one consumer (predicate-OR
     well-formedness, rule 3 of Section 3.5).

   The first two tiers and the variable abstraction (which sources are
   enumerated, which share a variable, from [Edge_ir.Gate]) are the
   block's structural facts, which [Edge_check.Block_check.facts]
   computes once for this validator and the polynomial lattice checker,
   so the two analyses quantify over the same space.  Blocks whose
   variable count exceeds [max_vars] are skipped, and [block]/[program]
   report how many blocks the enumerator declined.

   Paths are evaluated 32 at a time, one per lane of an int ([Lanes]);
   the one-path-at-a-time walk writes the message of the first failing
   path and decides the paths whose outcome depends on delivery order
   (see [lane_chunk]). *)

module B = Edge_isa.Block
module I = Edge_isa.Instr
module O = Edge_isa.Opcode
module T = Edge_isa.Target
module Gate = Edge_ir.Gate
module Bc = Edge_check.Block_check

let default_max_vars = 11

(* ---------- predicate-path enumeration ---------- *)

(* What both walks read of a block besides its gate.  A source is an
   instruction id, or [n] + a read slot.  Declared store lsids are kept
   in declaration order; a repeated lsid shares the state of its first
   declaration. *)
type shape = {
  b : B.t;
  n : int;
  var_pos : int array;  (** per source: its variable, or -1 *)
  var_neg : bool array;
  const : int array;  (** per source without a variable: its value code *)
  lsids : int array;
  first : int array;  (** per declaration: its lsid's first declaration *)
  decl : int array;  (** per instruction: its lsid's first declaration, or -1 *)
}

(* Abstract token values: predicates produced by tests are enumerated
   booleans; moves and sand propagate them; constants have a known
   parity; everything else is unknown (and receives an enumeration
   variable when its value feeds predicate matching).  A token is an
   int, a value code plus [null_bit]; [none] marks an operand with no
   token yet. *)
let vtrue = 0
let vfalse = 1
let vunknown = 2
let null_bit = 4
let none = -1
let value_code tok = tok land 3

let shape (b : B.t) (g : Bc.gate) =
  let instrs = b.B.instrs in
  let n = Array.length instrs in
  let nr = Array.length b.B.reads in
  let var_pos = Array.make (n + nr) (-1) in
  let var_neg = Array.make (n + nr) false in
  Hashtbl.iter
    (fun idx (pos, negated) ->
      var_pos.(idx) <- pos;
      var_neg.(idx) <- negated)
    g.Bc.var_of;
  let const =
    Array.init (n + nr) (fun idx ->
        if idx >= n then vunknown
        else
          match Gate.const_parity instrs.(idx) with
          | Some true -> vtrue
          | Some false -> vfalse
          | None -> vunknown)
  in
  let lsids = Array.of_list b.B.store_lsids in
  let first_decl lsid =
    let rec go p =
      if p >= Array.length lsids then -1
      else if lsids.(p) = lsid then p
      else go (p + 1)
    in
    go 0
  in
  {
    b;
    n;
    var_pos;
    var_neg;
    const;
    lsids;
    first = Array.map first_decl lsids;
    decl = Array.map (fun (i : I.t) -> first_decl i.I.lsid) instrs;
  }

exception Path_error of string

let path_error fmt = Printf.ksprintf (fun m -> raise (Path_error m)) fmt

let pp_assignment names assign =
  String.concat " "
    (List.map2
       (fun name value -> Printf.sprintf "%s=%d" name (if value then 1 else 0))
       names assign)

(* The scalar walk: [walk a] runs the block once on assignment [a] and
   returns the error of the path, if any.  Tests and other variable
   sources take their assigned outcome; firing and delivery mirror the
   functional executor, minus data values; the first error in delivery
   order is the path's. *)
let scalar_walk (sh : shape) (g : Bc.gate) : int -> string option =
  let b = sh.b and n = sh.n and lsids = sh.lsids and first = sh.first in
  let instrs = b.B.instrs in
  let bits = ref 0 in
  (* the value a source sends on the current path: its variable's
     outcome under [bits], a constant's parity, or unknown *)
  let value idx =
    let pos = sh.var_pos.(idx) in
    if pos < 0 then sh.const.(idx)
    else if !bits land (1 lsl pos) <> 0 <> sh.var_neg.(idx) then vtrue
    else vfalse
  in
  (* the path state, reset before each path *)
  let left = Array.make n none and right = Array.make n none in
  let pred_matched = Array.make n false and fired = Array.make n false in
  let writes = Array.make (Array.length b.B.writes) 0 in
  let resolved = Array.make (Array.length lsids) false in
  let branches = ref 0 and pending_loads = ref [] in
  (* deliveries in order of sending; every source sends at most once
     per path, so one slot per target suffices *)
  let capacity =
    Array.fold_left (fun acc (i : I.t) -> acc + List.length i.I.targets) 0 instrs
    + Array.fold_left
        (fun acc (rd : B.read) -> acc + List.length rd.B.rtargets)
        0 b.B.reads
  in
  let q_target = Array.make capacity (T.To_write 0) in
  let q_tok = Array.make capacity none in
  let q_head = ref 0 and q_tail = ref 0 in
  let reset () =
    Array.fill left 0 n none;
    Array.fill right 0 n none;
    Array.fill pred_matched 0 n false;
    Array.fill fired 0 n false;
    Array.fill writes 0 (Array.length writes) 0;
    Array.fill resolved 0 (Array.length resolved) false;
    branches := 0;
    pending_loads := [];
    q_head := 0;
    q_tail := 0
  in
  let resolve_store id =
    let p = sh.decl.(id) in
    if p < 0 then path_error "store lsid %d not declared" instrs.(id).I.lsid
    else if resolved.(p) then
      path_error "store lsid %d resolved twice" instrs.(id).I.lsid
    else resolved.(p) <- true
  in
  let lower_lsids_resolved lsid =
    let rec go p =
      p >= Array.length lsids
      || ((lsids.(p) >= lsid || resolved.(first.(p))) && go (p + 1))
    in
    go 0
  in
  let ready id =
    let i = instrs.(id) in
    if fired.(id) then false
    else
      let data_ok =
        match i.I.opcode with
        | O.Sand ->
            let l = left.(id) in
            l <> none && (value_code l = vfalse || right.(id) <> none)
        | op ->
            let arity = O.num_operands op in
            (arity < 1 || left.(id) <> none) && (arity < 2 || right.(id) <> none)
      in
      data_ok && ((not (I.is_predicated i)) || pred_matched.(id))
  in
  let send target tok =
    q_target.(!q_tail) <- target;
    q_tok.(!q_tail) <- tok;
    incr q_tail
  in
  let rec deliver target tok =
    match target with
    | T.To_write w ->
        writes.(w) <- writes.(w) + 1;
        if writes.(w) > 1 then path_error "write slot %d received two tokens" w
    | T.To_instr { id; slot } -> (
        let i = instrs.(id) in
        match slot with
        | T.Pred ->
            let v = value_code tok in
            let matches =
              match i.I.pred with
              | I.Unpredicated ->
                  path_error
                    "I%d: predicate delivered to unpredicated instruction" id
              | _ when v = vunknown ->
                  path_error "I%d: predicate arrives with underivable value" id
              | I.If_true -> v = vtrue
              | I.If_false -> v = vfalse
            in
            if matches then begin
              if pred_matched.(id) then
                path_error "I%d: two matching predicates" id;
              pred_matched.(id) <- true;
              try_fire id
            end
        | T.Left | T.Right -> (
            match i.I.opcode with
            | O.St _ when tok land null_bit <> 0 ->
                if fired.(id) then path_error "I%d: null for fired store" id;
                fired.(id) <- true;
                resolve_store id;
                retry_loads ()
            | _ ->
                let arr = match slot with T.Left -> left | _ -> right in
                if arr.(id) <> none then
                  raise
                    (Path_error
                       (Format.asprintf "I%d: operand %a delivered twice" id
                          T.pp_slot slot));
                arr.(id) <- tok;
                try_fire id))
  and try_fire id = if ready id then fire id
  and fire id =
    let i = instrs.(id) in
    match i.I.opcode with
    | O.Ld _ ->
        if not (lower_lsids_resolved i.I.lsid) then begin
          if not (List.mem id !pending_loads) then
            pending_loads := id :: !pending_loads
        end
        else begin
          fired.(id) <- true;
          send_all i (value id)
        end
    | O.St _ ->
        fired.(id) <- true;
        resolve_store id;
        retry_loads ()
    | O.Bro | O.Halt ->
        fired.(id) <- true;
        incr branches;
        if !branches > 1 then path_error "two branches fired"
    | O.Null ->
        fired.(id) <- true;
        send_all i (vfalse lor null_bit)
    | O.Un (O.Mov | O.Neg) | O.Mov4 ->
        (* two's-complement negation preserves the low bit *)
        fired.(id) <- true;
        send_all i left.(id)
    | O.Un O.Not ->
        (* bitwise not flips the low bit, so predicate parity inverts *)
        fired.(id) <- true;
        let l = left.(id) in
        let v = value_code l in
        let v = if v = vtrue then vfalse else if v = vfalse then vtrue else v in
        send_all i ((l land null_bit) lor v)
    | O.Sand ->
        fired.(id) <- true;
        let l = left.(id) in
        let v = value_code l in
        let v = if v = vtrue then value_code right.(id) else v in
        send_all i ((l land null_bit) lor v)
    | _ ->
        fired.(id) <- true;
        send_all i (value id)
  and send_all (i : I.t) tok =
    List.iter (fun tgt -> send tgt tok) i.I.targets;
    drain ()
  and retry_loads () =
    let loads = !pending_loads in
    pending_loads := [];
    List.iter (fun id -> if not fired.(id) then fire id) loads
  and drain () =
    while !q_head < !q_tail do
      let p = !q_head in
      incr q_head;
      deliver q_target.(p) q_tok.(p)
    done
  in
  let run_path () =
    (* seed register reads *)
    Array.iteri
      (fun r (rd : B.read) ->
        let tok = value (n + r) in
        List.iter (fun tgt -> send tgt tok) rd.B.rtargets)
      b.B.reads;
    (* seed 0-operand unpredicated instructions *)
    Array.iteri
      (fun id (i : I.t) ->
        if O.num_operands i.I.opcode = 0 && not (I.is_predicated i) then
          try_fire id)
      instrs;
    drain ();
    (* completeness: every output produced, exactly one exit taken *)
    if
      Array.exists (fun c -> c = 0) writes
      || Array.exists (fun p -> not resolved.(p)) first
      || !branches = 0
    then begin
      let missing = Buffer.create 32 in
      Array.iteri
        (fun w c -> if c = 0 then Printf.bprintf missing " W%d" w)
        writes;
      Array.iteri
        (fun q p ->
          if not resolved.(p) then Printf.bprintf missing " S%d" lsids.(q))
        first;
      if !branches = 0 then Buffer.add_string missing " branch";
      path_error "block output starves; missing:%s" (Buffer.contents missing)
    end
  in
  fun a ->
    bits := a;
    reset ();
    match run_path () with
    | () -> None
    | exception Path_error m ->
        let assign = List.init g.Bc.nvars (fun i -> a land (1 lsl i) <> 0) in
        Some (Printf.sprintf "path [%s]: %s" (pp_assignment g.Bc.names assign) m)

(* ---------- the lane walk ---------- *)

(* The tokens delivered to one operand on the lanes of a chunk: [arr]
   the lanes on which one arrives, [dup] those on which two do, and the
   OR of their values ([t] true, [u] underivable, [nl] null).  At a
   store a null is no arrival but a resolution: [nl] holds the lanes on
   which one is delivered, [dupnl] those on which two are. *)
type operand = {
  mutable arr : int;
  mutable dup : int;
  mutable t : int;
  mutable u : int;
  mutable nl : int;
  mutable dupnl : int;
}

(* What the lane walk reads of a block besides its shape and gate, one
   entry per target occurrence (a duplicated target is two deliveries).
   Stores and branches send nothing, so they produce nothing. *)
type wiring = {
  left : int array array;  (** per instruction: producers of its left operand *)
  right : int array array;
  preds : int array array;  (** producers of its predicate *)
  wprods : int array array;  (** per write slot *)
  lower : int array array;
      (** per load: the first declarations of the lsids below its own *)
  stores_at : int array array;  (** per first declaration: its stores *)
}

let wiring (sh : shape) =
  let b = sh.b and n = sh.n in
  let instrs = b.B.instrs in
  let nw = Array.length b.B.writes in
  let left = Array.make n [] and right = Array.make n [] in
  let preds = Array.make n [] and wprods = Array.make nw [] in
  let scan src targets =
    List.iter
      (function
        | T.To_instr { id; slot = T.Left } -> left.(id) <- src :: left.(id)
        | T.To_instr { id; slot = T.Right } -> right.(id) <- src :: right.(id)
        | T.To_instr { id; slot = T.Pred } -> preds.(id) <- src :: preds.(id)
        | T.To_write w -> wprods.(w) <- src :: wprods.(w))
      targets
  in
  Array.iteri
    (fun id (i : I.t) ->
      match i.I.opcode with
      | O.St _ | O.Bro | O.Halt -> ()
      | _ -> scan id i.I.targets)
    instrs;
  Array.iteri (fun r (rd : B.read) -> scan (n + r) rd.B.rtargets) b.B.reads;
  let arrays = Array.map (fun l -> Array.of_list (List.rev l)) in
  let firsts = List.sort_uniq compare (Array.to_list sh.first) in
  {
    left = arrays left;
    right = arrays right;
    preds = arrays preds;
    wprods = arrays wprods;
    lower =
      Array.map
        (fun (i : I.t) ->
          match i.I.opcode with
          | O.Ld _ ->
              List.filter (fun q -> sh.lsids.(q) < i.I.lsid) firsts
              |> Array.of_list
          | _ -> [||])
        instrs;
    stores_at =
      Array.init (Array.length sh.lsids) (fun q ->
          List.filter
            (fun id ->
              match instrs.(id).I.opcode with
              | O.St _ -> sh.decl.(id) = q
              | _ -> false)
            (List.init n Fun.id)
          |> Array.of_list);
  }

(* [lane_chunk sh g c] is [(fail, order)] over the lanes of chunk [c]:
   the lanes whose path fails, and the lanes whose outcome depends on
   delivery order, which only the scalar walk decides.

   Each source's masks (fire, value true, value underivable, null) are
   the least solution of the walk's firing rules, one pass in
   dependence order.  An operand's value is the OR of the tokens that
   reach it; on a lane where two do, the walk fails anyway.  On every
   other lane the masks are the walk's final state, so a lane fails
   exactly when its path does:
   - every event of the walk up to its error is in the solution, with
     the same values, so the error's condition is set in the solution;
   - a walk that ends without error reaches a state closed under the
     rules, which is the solution, so no condition is set.
   One rule is not a function of that state: a store fires once, so a
   null delivered to a store that also fires is harmless if it comes
   first and an error if it comes second.  Such lanes go to the scalar
   walk.

   A cyclic block takes passes in id order from nothing.  Until an
   operand gets two tokens on a lane, the lane only gains fires and
   every event on it is one the walk makes, so an error seen then is
   the walk's; after that the lane fails anyway.  So errors stay set
   from pass to pass, and the passes stop when every lane that still
   moves has failed: the others have reached the least solution.  A
   lane moves when a source's masks or a store's resolutions change,
   since a load before the store in id order reads them a pass
   later. *)
let lane_chunk (sh : shape) (g : Bc.gate) =
  let w = wiring sh in
  let b = sh.b and n = sh.n in
  let instrs = b.B.instrs in
  let nr = Array.length b.B.reads in
  let nw = Array.length b.B.writes in
  let nq = Array.length sh.lsids in
  let is_store =
    Array.map (fun (i : I.t) -> match i.I.opcode with O.St _ -> true | _ -> false) instrs
  in
  let arity = Array.map (fun (i : I.t) -> O.num_operands i.I.opcode) instrs in
  let e = Array.make (n + nr) 0 and vt = Array.make (n + nr) 0 in
  let vu = Array.make (n + nr) 0 and nl = Array.make (n + nr) 0 in
  let rs = Array.make n 0 (* a store's resolutions *) in
  let res = Array.make nq 0 in
  let fresh () = { arr = 0; dup = 0; t = 0; u = 0; nl = 0; dupnl = 0 } in
  let l = fresh () and r = fresh () in
  let gather o store prods =
    o.arr <- 0;
    o.dup <- 0;
    o.t <- 0;
    o.u <- 0;
    o.nl <- 0;
    o.dupnl <- 0;
    for j = 0 to Array.length prods - 1 do
      let p = prods.(j) in
      let ep = e.(p) in
      if store then begin
        let nul = ep land nl.(p) in
        let ev = ep lxor nul in
        o.dup <- o.dup lor (o.arr land ev);
        o.arr <- o.arr lor ev;
        o.dupnl <- o.dupnl lor (o.nl land nul);
        o.nl <- o.nl lor nul
      end
      else begin
        o.dup <- o.dup lor (o.arr land ep);
        o.arr <- o.arr lor ep;
        o.t <- o.t lor (ep land vt.(p));
        o.u <- o.u lor (ep land vu.(p));
        o.nl <- o.nl lor (ep land nl.(p))
      end
    done
  in
  fun c ->
    let full = Lanes.full_lanes g.Bc.nvars in
    let vars = Array.init g.Bc.nvars (Lanes.var_mask ~full c) in
    (* a source's own value: its variable, a constant, or unknown *)
    let own_t idx =
      let pos = sh.var_pos.(idx) in
      if pos >= 0 then if sh.var_neg.(idx) then full lxor vars.(pos) else vars.(pos)
      else if sh.const.(idx) = vtrue then full
      else 0
    in
    let own_u idx =
      if sh.var_pos.(idx) < 0 && sh.const.(idx) = vunknown then full else 0
    in
    for s = 0 to n + nr - 1 do
      let read = s >= n in
      e.(s) <- (if read then full else 0);
      vt.(s) <- (if read then own_t s else 0);
      vu.(s) <- (if read then own_u s else 0);
      nl.(s) <- 0
    done;
    Array.fill rs 0 n 0;
    let err = ref 0 and order_dep = ref 0 and branches = ref 0 in
    let moved = ref 0 in
    let set a i v =
      let old = a.(i) in
      if old <> v then begin
        moved := !moved lor (old lxor v);
        a.(i) <- v
      end
    in
    let value i t u nul =
      set vt i t;
      set vu i u;
      set nl i nul
    in
    let step i =
      let ins = instrs.(i) in
      let store = is_store.(i) in
      gather l store w.left.(i);
      gather r store w.right.(i);
      err := !err lor l.dup lor r.dup;
      let pok =
        let ps = w.preds.(i) in
        match ins.I.pred with
        | I.Unpredicated ->
            for j = 0 to Array.length ps - 1 do
              err := !err lor e.(ps.(j))
            done;
            full
        | pol ->
            let m = ref 0 in
            for j = 0 to Array.length ps - 1 do
              let p = ps.(j) in
              let ep = e.(p) in
              err := !err lor (ep land vu.(p));
              let hit =
                match pol with
                | I.If_true -> ep land vt.(p) land lnot vu.(p)
                | _ -> ep land lnot (vt.(p) lor vu.(p))
              in
              err := !err lor (!m land hit);
              m := !m lor hit
            done;
            !m
      in
      let data =
        match ins.I.opcode with
        | O.Sand -> l.arr land ((l.arr land lnot (l.t lor l.u)) lor r.arr)
        | _ ->
            (if arity.(i) >= 1 then l.arr else full)
            land if arity.(i) >= 2 then r.arr else full
      in
      let lower =
        let qs = w.lower.(i) in
        let m = ref full in
        for j = 0 to Array.length qs - 1 do
          let ss = w.stores_at.(qs.(j)) in
          let any = ref 0 in
          for s = 0 to Array.length ss - 1 do
            any := !any lor rs.(ss.(s))
          done;
          m := !m land !any
        done;
        !m
      in
      let fire = pok land data land lower in
      (match ins.I.opcode with
      | O.St _ ->
          let nulls = l.nl lor r.nl in
          let ev = fire lor nulls in
          err := !err lor l.dupnl lor r.dupnl lor (l.nl land r.nl);
          order_dep := !order_dep lor (fire land nulls);
          set rs i ev;
          let q = sh.decl.(i) in
          if q < 0 then err := !err lor ev
          else begin
            err := !err lor (res.(q) land ev);
            res.(q) <- res.(q) lor ev
          end
      | O.Bro | O.Halt ->
          err := !err lor (!branches land fire);
          branches := !branches lor fire
      | O.Null -> value i 0 0 full
      | O.Un (O.Mov | O.Neg) | O.Mov4 -> value i l.t l.u l.nl
      | O.Un O.Not -> value i (full land lnot (l.t lor l.u)) l.u l.nl
      | O.Sand ->
          let lt = l.t land lnot l.u in
          value i (lt land r.t) (l.u lor (lt land r.u)) l.nl
      | _ -> value i (own_t i) (own_u i) 0);
      set e i fire
    in
    (* a lane that has not failed gains a bit per pass until it
       settles; one that has not settled by then is left to the scalar
       walk *)
    let max_passes = (4 * (n + nr)) + 2 in
    let rec passes k =
      moved := 0;
      branches := 0;
      Array.fill res 0 nq 0;
      Array.iter step g.Bc.order;
      let unsettled = !moved land lnot !err in
      if g.Bc.acyclic || unsettled = 0 then 0
      else if k >= max_passes then unsettled
      else passes (k + 1)
    in
    let unsettled = passes 0 in
    for x = 0 to nw - 1 do
      let ps = w.wprods.(x) in
      let acc = ref 0 in
      for j = 0 to Array.length ps - 1 do
        let ep = e.(ps.(j)) in
        err := !err lor (!acc land ep);
        acc := !acc lor ep
      done;
      err := !err lor (full land lnot !acc)
    done;
    Array.iter (fun q -> err := !err lor (full land lnot res.(q))) sh.first;
    err := !err lor (full land lnot !branches);
    (!err land full, (!order_dep lor unsettled) land full)

(* ---------- the verdicts ---------- *)

type walk = Lanes | Scalar

(* The assignments that may fail, ascending, each with whether the
   walk knows it does.  The scalar walk offers every assignment and
   knows none until it walks it; the lane walk offers its failing and
   order-dependent lanes, chunk by chunk, and knows the former. *)
let candidates walk sh g : (int * bool) Seq.t =
  match walk with
  | Scalar -> Seq.init (1 lsl g.Bc.nvars) (fun a -> (a, false))
  | Lanes ->
      let chunk = lane_chunk sh g in
      Seq.init (Lanes.chunks g.Bc.nvars) Fun.id
      |> Seq.concat_map (fun c ->
             let fail, order_dep = chunk c in
             let rec lanes m () =
               if m = 0 then Seq.Nil
               else
                 let lane = Lanes.lowest m in
                 Seq.Cons
                   ( ((c lsl Lanes.lane_bits) + lane, order_dep land (1 lsl lane) = 0),
                     lanes (m land (m - 1)) )
             in
             lanes (fail lor order_dep))

(* Returns the path errors plus whether enumeration was skipped because
   the block needs more than [max_vars] variables (2^k paths).  The
   first failing path is reported, in the scalar walk's words. *)
let gate_path_errors ?(max_vars = default_max_vars) b (g : Bc.gate) :
    string list * bool =
  if g.Bc.nvars > max_vars then ([], true)
  else
    let sh = shape b g in
    let scalar = lazy (scalar_walk sh g) in
    ( Option.to_list
        (Seq.find_map (fun (a, _) -> Lazy.force scalar a) (candidates Lanes sh g)),
      false )

(* The failing assignments of a block, ascending, as [walk] finds them,
   if its paths are walked.  [Scalar] is the reference the lane walk is
   tested against. *)
let path_failures ?(max_vars = default_max_vars) walk (b : B.t) =
  match (Bc.facts b).Bc.gate with
  | Some g when g.Bc.nvars <= max_vars ->
      let sh = shape b g in
      let scalar = lazy (scalar_walk sh g) in
      Some
        (candidates walk sh g
        |> Seq.filter_map (fun (a, known) ->
               if known || Option.is_some (Lazy.force scalar a) then Some a else None)
        |> List.of_seq)
  | _ -> None

(* ---------- entry points ---------- *)

(* [Ok skipped]: the block is clean as far as the enumerator looked;
   [skipped] is true when path enumeration was declined (too many
   variables) and only the structural/round-trip checks ran.  A block
   with an id or target out of range gets only those checks, which
   report it.  Every call walks the block's paths; only its structural
   facts are shared, with the block checker, for an identical block of
   the same program (see [Edge_check.Scope]). *)
let block ?(max_vars = default_max_vars) (b : B.t) :
    (bool, string list) result =
  let f = Bc.facts b in
  let path, skipped =
    match f.Bc.gate with
    | Some g -> gate_path_errors ~max_vars b g
    | None -> ([], false)
  in
  match f.Bc.invalid @ List.map snd f.Bc.roundtrip @ path with
  | [] -> Ok skipped
  | es -> Error es

(* [Ok n]: the program is clean; [n] blocks were too wide for path
   enumeration and got only structural checks. *)
let program ?max_vars (p : Edge_isa.Program.t) : (int, string list) result =
  let skipped = ref 0 in
  let block_errs =
    List.concat_map
      (fun (name, blk) ->
        match block ?max_vars blk with
        | Ok s ->
            if s then incr skipped;
            []
        | Error es -> List.map (fun e -> name ^ ": " ^ e) es)
      p.Edge_isa.Program.blocks
  in
  (* the inter-block exit graph *)
  let exit_errs =
    List.concat_map
      (fun (name, (blk : B.t)) ->
        Array.to_list blk.B.exits
        |> List.filter_map (fun e ->
               if
                 String.equal e B.halt_exit
                 || Edge_isa.Program.find p e <> None
               then None
               else Some (Printf.sprintf "%s: exit to unknown block %s" name e)))
      p.Edge_isa.Program.blocks
  in
  match block_errs @ exit_errs with [] -> Ok !skipped | es -> Error es
