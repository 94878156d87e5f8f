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

   The variable abstraction (which sources are enumerated, which share a
   variable) lives in [Edge_ir.Gate], shared with the polynomial lattice
   checker in lib/check so the two analyses quantify over the same
   space.  Blocks whose variable count exceeds [max_vars] are skipped —
   no longer silently: [path_errors]/[block]/[program] report how many
   blocks the enumerator declined. *)

module B = Edge_isa.Block
module I = Edge_isa.Instr
module O = Edge_isa.Opcode
module T = Edge_isa.Target
module E = Edge_isa.Encode
module Gate = Edge_ir.Gate

let default_max_vars = 11

(* ---------- encode/decode round trip ---------- *)

let roundtrip_errors (b : B.t) : string list =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  (* the reserved-target rule, checked explicitly for a clear message *)
  let check_targets what targets =
    List.iter
      (function
        | T.To_instr { id = 0; slot = T.Left } ->
            err "%s targets I0's left operand (encodes as no-target)" what
        | _ -> ())
      targets
  in
  Array.iter
    (fun (i : I.t) -> check_targets (Printf.sprintf "I%d" i.I.id) i.I.targets)
    b.B.instrs;
  (match E.encode_block_body b.B.instrs with
  | Error e -> err "encode: %s" e
  | Ok words -> (
      match E.decode_block_body words with
      | Error e -> err "decode: %s" e
      | Ok instrs' ->
          if Array.length instrs' <> Array.length b.B.instrs then
            err "round trip changed instruction count: %d -> %d"
              (Array.length b.B.instrs) (Array.length instrs')
          else
            Array.iteri
              (fun idx (orig : I.t) ->
                let dec = instrs'.(idx) in
                if not (I.equal orig dec) then
                  err "I%d does not round-trip: %a <> %a" idx I.pp orig I.pp
                    dec)
              b.B.instrs));
  List.rev !errs

(* ---------- predicate-path enumeration ---------- *)

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

exception Path_error of string

let path_error fmt = Printf.ksprintf (fun m -> raise (Path_error m)) fmt

let pp_assignment names assign =
  String.concat " "
    (List.map2
       (fun name value -> Printf.sprintf "%s=%d" name (if value then 1 else 0))
       names assign)

(* Returns the path errors plus whether enumeration was skipped because
   the block needs more than [max_vars] variables (2^k paths).  Each
   path runs the block once: tests and other variable sources take
   their assigned outcome; firing and delivery mirror the functional
   executor, minus data values.  The first failing path is reported. *)
let path_errors ?(max_vars = default_max_vars) (b : B.t) :
    string list * bool =
  let instrs = b.B.instrs in
  let n = Array.length instrs in
  let nr = Array.length b.B.reads in
  let rel = Gate.boolean_relevant b in
  let names, var_of, k = Gate.variables b rel in
  if k > max_vars then ([], true)
  else begin
    (* the value a source (instruction id, or [n] + read slot) sends on
       the current path: its variable's outcome under [bits], a
       constant's parity, or unknown *)
    let var_pos = Array.make (n + nr) (-1) in
    let var_neg = Array.make (n + nr) false in
    Hashtbl.iter
      (fun idx (pos, negated) ->
        var_pos.(idx) <- pos;
        var_neg.(idx) <- negated)
      var_of;
    let const =
      Array.init (n + nr) (fun idx ->
          if idx >= n then vunknown
          else
            match Gate.const_parity instrs.(idx) with
            | Some true -> vtrue
            | Some false -> vfalse
            | None -> vunknown)
    in
    let bits = ref 0 in
    let value idx =
      let pos = var_pos.(idx) in
      if pos < 0 then const.(idx)
      else if !bits land (1 lsl pos) <> 0 <> var_neg.(idx) then vtrue
      else vfalse
    in
    (* declared store lsids in declaration order; a repeated lsid shares
       the state of its first declaration *)
    let lsids = Array.of_list b.B.store_lsids in
    let first_decl lsid =
      let rec go p =
        if p >= Array.length lsids then -1
        else if lsids.(p) = lsid then p
        else go (p + 1)
      in
      go 0
    in
    let first = Array.map first_decl lsids in
    let decl = Array.map (fun (i : I.t) -> first_decl i.I.lsid) instrs in
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
      let p = decl.(id) in
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
    let err = ref None in
    let case = ref 0 in
    while Option.is_none !err && !case < 1 lsl k do
      bits := !case;
      reset ();
      (try run_path ()
       with Path_error m ->
         let assign = List.init k (fun i -> !bits land (1 lsl i) <> 0) in
         err :=
           Some
             (Printf.sprintf "path [%s]: %s" (pp_assignment names assign) m));
      incr case
    done;
    ((match !err with None -> [] | Some e -> [ e ]), false)
  end

(* ---------- entry points ---------- *)

(* path enumeration indexes instructions and write slots by the ids and
   targets it reads; a block with one out of range gets only the
   structural and round-trip checks, which report it *)
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

(* [Ok skipped]: the block is clean as far as the enumerator looked;
   [skipped] is true when path enumeration was declined (too many
   variables) and only the structural/round-trip checks ran.  A passing
   verdict is reused for an identical block validated under the same
   [max_vars] for the same program (see [Edge_check.Scope]). *)
let block ?(max_vars = default_max_vars) (b : B.t) :
    (bool, string list) result =
  Edge_check.Scope.verdict
    ~tag:(Printf.sprintf "validate max_vars=%d" max_vars)
    b
  @@ fun () ->
  let structural =
    match B.validate b with Ok () -> [] | Error es -> es
  in
  let path, skipped =
    if indexable b then path_errors ~max_vars b else ([], false)
  in
  match structural @ roundtrip_errors b @ path with
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
