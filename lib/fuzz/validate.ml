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
   variable when its value feeds predicate matching). *)
type aval = VTrue | VFalse | VUnknown

type atok = { v : aval; null : bool }

exception Path_error of string

type path_state = {
  left : atok option array;
  right : atok option array;
  pred_matched : bool array;
  fired : bool array;
  writes : int array;  (* tokens received per write slot *)
  mutable stores : (int * [ `Unresolved | `Resolved ]) list;
  mutable branches : int;
  mutable pending_loads : int list;
  queue : (T.t * atok) Queue.t;
}

let pp_assignment names assign =
  String.concat " "
    (List.map2
       (fun name value -> Printf.sprintf "%s=%d" name (if value then 1 else 0))
       names assign)

(* run one path: tests and other variable sources take their assigned
   outcome; firing and delivery mirror the functional executor, minus
   data values *)
let run_path (b : B.t) ~instr_value st =
  let n = Array.length b.B.instrs in
  let resolve_store lsid =
    match List.assoc_opt lsid st.stores with
    | Some `Resolved -> raise (Path_error (Printf.sprintf "store lsid %d resolved twice" lsid))
    | Some `Unresolved ->
        st.stores <-
          List.map
            (fun (l, r) -> if l = lsid then (l, `Resolved) else (l, r))
            st.stores
    | None ->
        raise (Path_error (Printf.sprintf "store lsid %d not declared" lsid))
  in
  let lower_lsids_resolved lsid =
    List.for_all (fun (l, r) -> l >= lsid || r = `Resolved) st.stores
  in
  let ready id =
    let i = b.B.instrs.(id) in
    if st.fired.(id) then false
    else
      let arity = O.num_operands i.I.opcode in
      let data_ok =
        match i.I.opcode with
        | O.Sand -> (
            match st.left.(id) with
            | Some l -> l.v = VFalse || st.right.(id) <> None
            | None -> false)
        | _ ->
            (arity < 1 || st.left.(id) <> None)
            && (arity < 2 || st.right.(id) <> None)
      in
      let pred_ok = (not (I.is_predicated i)) || st.pred_matched.(id) in
      data_ok && pred_ok
  in
  let rec deliver (target, tok) =
    match target with
    | T.To_write w ->
        st.writes.(w) <- st.writes.(w) + 1;
        if st.writes.(w) > 1 then
          raise (Path_error (Printf.sprintf "write slot %d received two tokens" w))
    | T.To_instr { id; slot } -> (
        let i = b.B.instrs.(id) in
        match slot with
        | T.Pred ->
            let matches =
              match (i.I.pred, tok.v) with
              | I.Unpredicated, _ ->
                  raise
                    (Path_error
                       (Printf.sprintf "I%d: predicate delivered to unpredicated instruction" id))
              | I.If_true, VTrue | I.If_false, VFalse -> true
              | I.If_true, VFalse | I.If_false, VTrue -> false
              | _, VUnknown ->
                  raise
                    (Path_error
                       (Printf.sprintf "I%d: predicate arrives with underivable value" id))
            in
            if matches then begin
              if st.pred_matched.(id) then
                raise (Path_error (Printf.sprintf "I%d: two matching predicates" id));
              st.pred_matched.(id) <- true;
              try_fire id
            end
        | T.Left | T.Right -> (
            match i.I.opcode with
            | O.St _ when tok.null ->
                if st.fired.(id) then
                  raise (Path_error (Printf.sprintf "I%d: null for fired store" id));
                st.fired.(id) <- true;
                resolve_store i.I.lsid;
                retry_loads ()
            | _ ->
                let arr =
                  match slot with
                  | T.Left -> st.left
                  | T.Right -> st.right
                  | T.Pred -> assert false
                in
                (match arr.(id) with
                | Some _ ->
                    raise
                      (Path_error
                         (Format.asprintf "I%d: operand %a delivered twice" id
                            T.pp_slot slot))
                | None -> arr.(id) <- Some tok);
                try_fire id))
  and try_fire id = if ready id then fire id
  and fire id =
    let i = b.B.instrs.(id) in
    match i.I.opcode with
    | O.Ld _ ->
        if not (lower_lsids_resolved i.I.lsid) then begin
          if not (List.mem id st.pending_loads) then
            st.pending_loads <- id :: st.pending_loads
        end
        else begin
          st.fired.(id) <- true;
          send_all i { v = instr_value id; null = false }
        end
    | O.St _ ->
        st.fired.(id) <- true;
        let l = Option.get st.left.(id) and r = Option.get st.right.(id) in
        ignore l;
        ignore r;
        resolve_store i.I.lsid;
        retry_loads ()
    | O.Bro | O.Halt ->
        st.fired.(id) <- true;
        st.branches <- st.branches + 1;
        if st.branches > 1 then raise (Path_error "two branches fired")
    | O.Null ->
        st.fired.(id) <- true;
        send_all i { v = VFalse; null = true }
    | O.Un O.Mov | O.Mov4 ->
        st.fired.(id) <- true;
        let l = Option.get st.left.(id) in
        send_all i l
    | O.Un O.Not ->
        (* bitwise not flips the low bit, so predicate parity inverts *)
        st.fired.(id) <- true;
        let l = Option.get st.left.(id) in
        let v =
          match l.v with
          | VTrue -> VFalse
          | VFalse -> VTrue
          | VUnknown -> VUnknown
        in
        send_all i { l with v }
    | O.Un O.Neg ->
        (* two's-complement negation preserves the low bit *)
        st.fired.(id) <- true;
        send_all i (Option.get st.left.(id))
    | O.Sand ->
        st.fired.(id) <- true;
        let l = Option.get st.left.(id) in
        let v =
          match l.v with
          | VFalse -> VFalse
          | VTrue -> (Option.get st.right.(id)).v
          | VUnknown -> VUnknown
        in
        send_all i { v; null = l.null }
    | _ ->
        st.fired.(id) <- true;
        send_all i { v = instr_value id; null = false }
  and send_all (i : I.t) tok =
    List.iter (fun tgt -> Queue.add (tgt, tok) st.queue) i.I.targets;
    drain ()
  and retry_loads () =
    let loads = st.pending_loads in
    st.pending_loads <- [];
    List.iter (fun id -> if not st.fired.(id) then fire id) loads
  and drain () =
    while not (Queue.is_empty st.queue) do
      deliver (Queue.pop st.queue)
    done
  in
  (* seed register reads *)
  Array.iteri
    (fun r (rd : B.read) ->
      let tok = { v = instr_value (n + r); null = false } in
      List.iter (fun tgt -> Queue.add (tgt, tok) st.queue) rd.B.rtargets)
    b.B.reads;
  (* seed 0-operand unpredicated instructions *)
  Array.iteri
    (fun id (i : I.t) ->
      if O.num_operands i.I.opcode = 0 && not (I.is_predicated i) then
        try_fire id)
    b.B.instrs;
  drain ();
  (* completeness: every output produced, exactly one exit taken *)
  let missing = Buffer.create 32 in
  Array.iteri
    (fun w c ->
      if c = 0 then Buffer.add_string missing (Printf.sprintf " W%d" w))
    st.writes;
  List.iter
    (fun (l, r) ->
      if r = `Unresolved then Buffer.add_string missing (Printf.sprintf " S%d" l))
    st.stores;
  if st.branches = 0 then Buffer.add_string missing " branch";
  if Buffer.length missing > 0 then
    raise
      (Path_error
         (Printf.sprintf "block output starves; missing:%s" (Buffer.contents missing)))

(* number of enumeration variables the block would need — the quantity
   compared against [max_vars] *)
let enum_vars (b : B.t) : int =
  let rel = Gate.boolean_relevant b in
  let _, _, k = Gate.variables b rel in
  k

(* Returns the path errors plus whether enumeration was skipped because
   the block needs more than [max_vars] variables (2^k paths). *)
let path_errors ?(max_vars = default_max_vars) (b : B.t) :
    string list * bool =
  let n = Array.length b.B.instrs in
  let rel = Gate.boolean_relevant b in
  let names, var_of, k = Gate.variables b rel in
  if k > max_vars then ([], true)
  else begin
    let const_value (i : I.t) =
      match Gate.const_parity i with
      | Some true -> Some VTrue
      | Some false -> Some VFalse
      | None -> None
    in
    let err = ref None in
    let case = ref 0 in
    while !err = None && !case < 1 lsl k do
      let bits = !case in
      let assign = List.init k (fun i -> bits land (1 lsl i) <> 0) in
      let instr_value idx =
        match Hashtbl.find_opt var_of idx with
        | Some (pos, negated) ->
            if bits land (1 lsl pos) <> 0 <> negated then VTrue else VFalse
        | None -> (
            if idx < n then
              match const_value b.B.instrs.(idx) with
              | Some v -> v
              | None -> VUnknown
            else VUnknown)
      in
      let st =
        {
          left = Array.make n None;
          right = Array.make n None;
          pred_matched = Array.make n false;
          fired = Array.make n false;
          writes = Array.make (Array.length b.B.writes) 0;
          stores = List.map (fun l -> (l, `Unresolved)) b.B.store_lsids;
          branches = 0;
          pending_loads = [];
          queue = Queue.create ();
        }
      in
      (try run_path b ~instr_value st
       with Path_error m ->
         err :=
           Some
             (Printf.sprintf "path [%s]: %s" (pp_assignment names assign) m));
      incr case
    done;
    ((match !err with None -> [] | Some e -> [ e ]), false)
  end

(* ---------- entry points ---------- *)

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
  let path, skipped = path_errors ~max_vars b in
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
