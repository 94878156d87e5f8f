(* Threaded-code block JIT for the functional simulator.

   The interpreter in [Functional] re-dispatches on every token
   delivery: pattern-match the target, pattern-match the consumer's
   opcode, re-derive readiness from the operand flags, and round-trip
   every operand through a FIFO. This module compiles each decoded
   block image once into a web of pre-resolved closures — the software
   analogue of threaded code:

   - every static *target* becomes a sink closure that already knows
     its consumer's slot, predication polarity and readiness
     discipline, so delivery is one indirect call;
   - every static *instruction* becomes a fire closure with the opcode
     dispatch, immediate, latency class, statistics class and target
     fan-out resolved at compile time ([Alu.jit1]/[Alu.jit2]);
   - readiness is a countdown ([missing] operands+predicate) instead of
     re-reading the operand flags, so the common case is one decrement;
   - token delivery recurses directly into the consumer's sink instead
     of going through a queue. Intra-block dataflow firing is
     confluent (each operand slot receives exactly one value in a
     well-formed block, and loads fire only once all lower-LSID stores
     have resolved), so depth-first delivery computes the same fired
     set, the same values and the same committed outputs as the
     interpreter's breadth-first drain. Recursion depth is bounded by
     the block size (≤128 instructions).

   The closures write the {!Dataflow} core's frame arrays, and take
   store resolution, forwarding, branch recording, completion,
   deadlock diagnosis and commit from the core, so only delivery and
   readiness are specialized here. Compiled code captures only
   immutable per-block facts; all run-time state lives in the [state]
   record threaded through every closure, so one compiled program is
   shared across runs and across domains. Code is cached per
   [Program.digest] exactly like [Block_image].

   Semantics — including malformed-block diagnostics and [Stats]
   accounting — must stay identical to the interpreter: the
   JIT-vs-interpreter differential tests compare outcomes, memory
   images, store counts, stats and error text over the fuzz corpus. *)

module Block = Edge_isa.Block
module Instr = Edge_isa.Instr
module Opcode = Edge_isa.Opcode
module Target = Edge_isa.Target
module Token = Edge_isa.Token
module Mem = Edge_isa.Mem
module Program = Edge_isa.Program
module Bi = Block_image

(* Salted into disk-cache and memo keys: bump on any change to the
   compiled representation or its semantics. *)
let revision = "jit-1"

module Df = Dataflow

(* Run-time state: the core frame, capacity-sized over the whole
   program and prepared per block, plus the readiness countdown. *)
type state = {
  df : Df.t;
  missing : int array;  (* countdown: operands + matching predicate *)
  regs : int64 array;
  mem : Mem.t;
  stats : Stats.t;
  mutable next : int;  (* block index of the taken exit; -1 if unknown *)
}

type cblock = {
  img : Bi.t;
  init_missing : int array;
  enter : state -> unit;
      (* seed register reads and 0-operand instructions, then run the
         block to quiescence by direct recursion; raises [Malformed] *)
}

type t = { imgp : Bi.program; cblocks : cblock array }

(* Hot-path note: every index baked into a compiled closure is
   validated against the block image at compile time (and the frame
   arrays are capacity-sized over the whole program), so the
   per-delivery path uses unchecked array access. *)

let make_state (code : t) ~regs ~mem ~stats =
  {
    df = Df.for_program code.imgp;
    missing = Array.make (max 1 code.imgp.Bi.max_n) 0;
    regs;
    mem;
    stats;
    next = -1;
  }

let prepare (cb : cblock) st =
  Df.prepare st.df cb.img ~stats:st.stats;
  let init = cb.init_missing in
  for i = 0 to Array.length init - 1 do
    Array.unsafe_set st.missing i (Array.unsafe_get init i)
  done;
  st.next <- -1

let rec stores_resolved (df : Df.t) (lower : int array) k =
  k >= Array.length lower
  || (match Array.unsafe_get df.Df.stores (Array.unsafe_get lower k) with
     | Df.Unresolved -> false
     | Df.Stored _ | Df.Nulled -> true)
     && stores_resolved df lower (k + 1)

(* parity with the interpreter, which hits the same out-of-range array
   access uncaught (a compiler bug, not a program fault) *)
let out_of_bounds : state -> Token.t -> unit =
 fun _ _ -> invalid_arg "index out of bounds"

let compose (ss : (state -> Token.t -> unit) array) : state -> Token.t -> unit
    =
  match Array.length ss with
  | 0 -> fun _ _ -> ()
  | 1 -> ss.(0)
  | 2 ->
      let s0 = ss.(0) and s1 = ss.(1) in
      fun st tok ->
        s0 st tok;
        s1 st tok
  | 3 ->
      let s0 = ss.(0) and s1 = ss.(1) and s2 = ss.(2) in
      fun st tok ->
        s0 st tok;
        s1 st tok;
        s2 st tok
  | 4 ->
      let s0 = ss.(0) and s1 = ss.(1) and s2 = ss.(2) and s3 = ss.(3) in
      fun st tok ->
        s0 st tok;
        s1 st tok;
        s2 st tok;
        s3 st tok
  | _ -> fun st tok -> Array.iter (fun s -> s st tok) ss

let compile_block ~(resolve : string -> int) (img : Bi.t) : cblock =
  let n = img.Bi.n in
  let instrs = img.Bi.instrs in
  let fires : (state -> unit) array = Array.make (max 1 n) (fun _ -> ()) in
  let init_missing =
    Array.init n (fun j ->
        let i = instrs.(j) in
        i.Bi.arity + if i.Bi.predicated then 1 else 0)
  in
  (* full readiness re-check, the fallback for consumers the countdown
     cannot cover (Sand short-circuit, stores nulled at delivery,
     spurious deliveries to already-satisfied slots): [Dataflow.ready]
     specialized per instruction *)
  let checks : (state -> unit) array =
    Array.init n (fun j ->
        let i = instrs.(j) in
        let predicated = i.Bi.predicated in
        match i.Bi.op with
        | Opcode.Sand ->
            fun st ->
              let df = st.df in
              if
                (not (Array.unsafe_get df.Df.fired j))
                && ((not predicated) || Array.unsafe_get df.Df.pred_matched j)
                && Array.unsafe_get df.Df.lset j
                && ((not (Token.as_predicate (Array.unsafe_get df.Df.left j)))
                   || Array.unsafe_get df.Df.rset j)
              then (Array.unsafe_get fires j) st
        | _ ->
            let a = i.Bi.arity in
            fun st ->
              let df = st.df in
              if
                (not (Array.unsafe_get df.Df.fired j))
                && ((not predicated) || Array.unsafe_get df.Df.pred_matched j)
                && (a < 1 || Array.unsafe_get df.Df.lset j)
                && (a < 2 || Array.unsafe_get df.Df.rset j)
              then (Array.unsafe_get fires j) st)
  in
  let retry_loads st =
    let df = st.df in
    let loads = df.Df.deferred in
    df.Df.deferred <- [];
    List.iter (fun id -> if not (Array.unsafe_get df.Df.fired id) then (Array.unsafe_get fires id) st) loads
  in
  (* [managed j] = readiness fully expressible as a countdown *)
  let managed j =
    match instrs.(j).Bi.op with Opcode.Sand | Opcode.St _ -> false | _ -> true
  in
  let sink_of (t : Target.t) : state -> Token.t -> unit =
    match t with
    | Target.To_write w ->
        if w < 0 || w >= img.Bi.n_writes then out_of_bounds
        else
          let msg = Printf.sprintf "write slot %d received two tokens" w in
          fun st tok ->
            let df = st.df in
            if Array.unsafe_get df.Df.wset w then raise (Df.Malformed msg);
            Array.unsafe_set df.Df.wset w true;
            Array.unsafe_set df.Df.writes w tok;
            df.Df.outputs_left <- df.Df.outputs_left - 1
    | Target.To_instr { id = j; slot } -> (
        if j < 0 || j >= n then out_of_bounds
        else
          let c = instrs.(j) in
          match slot with
          | Target.Pred ->
              if not c.Bi.predicated then
                let msg =
                  Printf.sprintf
                    "I%d: predicate delivered to unpredicated instruction" j
                in
                fun _ _ -> raise (Df.Malformed msg)
              else
                let want =
                  match c.Bi.pred with
                  | Instr.If_true -> true
                  | Instr.If_false -> false
                  | Instr.Unpredicated -> assert false
                in
                let msg = Printf.sprintf "I%d: two matching predicates" j in
                if managed j then (
                  fun st tok ->
                    if Token.as_predicate tok = want then begin
                      let df = st.df in
                      if Array.unsafe_get df.Df.pred_matched j then raise (Df.Malformed msg);
                      Array.unsafe_set df.Df.pred_matched j true;
                      Array.unsafe_set df.Df.pred_exc j tok.Token.exc;
                      let m = Array.unsafe_get st.missing j - 1 in
                      Array.unsafe_set st.missing j m;
                      if m = 0 then (Array.unsafe_get fires j) st
                    end)
                else
                  fun st tok ->
                    if Token.as_predicate tok = want then begin
                      let df = st.df in
                      if Array.unsafe_get df.Df.pred_matched j then raise (Df.Malformed msg);
                      Array.unsafe_set df.Df.pred_matched j true;
                      Array.unsafe_set df.Df.pred_exc j tok.Token.exc;
                      (Array.unsafe_get checks j) st
                    end
          | Target.Left | Target.Right -> (
              let is_left = slot = Target.Left in
              let msg =
                Printf.sprintf "I%d: operand %s delivered twice" j
                  (if is_left then "L" else "R")
              in
              match c.Bi.op with
              | Opcode.St _ ->
                  (* a null token arriving at a store resolves it
                     immediately as a null store (Section 4.2) *)
                  let lsid = c.Bi.lsid in
                  let nmsg = Printf.sprintf "I%d: null for fired store" j in
                  fun st tok ->
                    let df = st.df in
                    if tok.Token.null then begin
                      if Array.unsafe_get df.Df.fired j then raise (Df.Malformed nmsg);
                      Array.unsafe_set df.Df.fired j true;
                      st.stats.Stats.nulls_executed <-
                        st.stats.Stats.nulls_executed + 1;
                      Df.resolve_store df lsid Df.Nulled;
                      retry_loads st
                    end
                    else begin
                      let set = if is_left then df.Df.lset else df.Df.rset in
                      if Array.unsafe_get set j then raise (Df.Malformed msg);
                      Array.unsafe_set set j true;
                      Array.unsafe_set (if is_left then df.Df.left else df.Df.right) j tok;
                      (Array.unsafe_get checks j) st
                    end
              | Opcode.Sand ->
                  (* short-circuit AND: readiness inlined so the hot
                     Hyper/Both predicate-merge chains skip the generic
                     [checks] indirection; a delivered right operand
                     never needs the left-value probe *)
                  let pred_j = c.Bi.predicated in
                  if is_left then (
                    fun st tok ->
                      let df = st.df in
                      if Array.unsafe_get df.Df.lset j then raise (Df.Malformed msg);
                      Array.unsafe_set df.Df.lset j true;
                      Array.unsafe_set df.Df.left j tok;
                      if
                        (not (Array.unsafe_get df.Df.fired j))
                        && ((not pred_j) || Array.unsafe_get df.Df.pred_matched j)
                        && ((not (Token.as_predicate tok))
                           || Array.unsafe_get df.Df.rset j)
                      then (Array.unsafe_get fires j) st)
                  else (
                    fun st tok ->
                      let df = st.df in
                      if Array.unsafe_get df.Df.rset j then raise (Df.Malformed msg);
                      Array.unsafe_set df.Df.rset j true;
                      Array.unsafe_set df.Df.right j tok;
                      if
                        (not (Array.unsafe_get df.Df.fired j))
                        && ((not pred_j) || Array.unsafe_get df.Df.pred_matched j)
                        && Array.unsafe_get df.Df.lset j
                      then (Array.unsafe_get fires j) st)
              | _ ->
                  let canonical =
                    managed j
                    && if is_left then c.Bi.arity >= 1 else c.Bi.arity >= 2
                  in
                  if canonical then
                    if is_left then (
                      fun st tok ->
                        let df = st.df in
                        if Array.unsafe_get df.Df.lset j then raise (Df.Malformed msg);
                        Array.unsafe_set df.Df.lset j true;
                        Array.unsafe_set df.Df.left j tok;
                        let m = Array.unsafe_get st.missing j - 1 in
                        Array.unsafe_set st.missing j m;
                        if m = 0 then (Array.unsafe_get fires j) st)
                    else (
                      fun st tok ->
                        let df = st.df in
                        if Array.unsafe_get df.Df.rset j then raise (Df.Malformed msg);
                        Array.unsafe_set df.Df.rset j true;
                        Array.unsafe_set df.Df.right j tok;
                        let m = Array.unsafe_get st.missing j - 1 in
                        Array.unsafe_set st.missing j m;
                        if m = 0 then (Array.unsafe_get fires j) st)
                  else
                    fun st tok ->
                      let df = st.df in
                      let set = if is_left then df.Df.lset else df.Df.rset in
                      if Array.unsafe_get set j then raise (Df.Malformed msg);
                      Array.unsafe_set set j true;
                      Array.unsafe_set (if is_left then df.Df.left else df.Df.right) j tok;
                      (Array.unsafe_get checks j) st))
  in
  let compile_fire id : state -> unit =
    let i = instrs.(id) in
    let send = compose (Array.map sink_of i.Bi.targets) in
    let predicated = i.Bi.predicated in
    match i.Bi.op with
    | Opcode.Ld _ ->
        let lsid = i.Bi.lsid in
        let lower =
          (* store slots the load must wait on, in ascending-LSID order *)
          let acc = ref [] in
          for k = img.Bi.n_stores - 1 downto 0 do
            let slot = img.Bi.store_order.(k) in
            if img.Bi.store_lsids.(slot) < lsid then acc := slot :: !acc
          done;
          Array.of_list !acc
        in
        let no_lower = Array.length lower = 0 in
        fun st ->
          let df = st.df in
          if not (Array.unsafe_get df.Df.fired id) then
            if no_lower || stores_resolved df lower 0 then begin
              Array.unsafe_set df.Df.fired id true;
              st.stats.Stats.instrs_executed <-
                st.stats.Stats.instrs_executed + 1;
              send st
                (Df.load df id ~mem:st.mem
                   (if no_lower then [] else Df.stores_below df lsid))
            end
            else if not (List.mem id df.Df.deferred) then
              df.Df.deferred <- id :: df.Df.deferred
    | Opcode.St _ ->
        let lsid = i.Bi.lsid in
        fun st ->
          let df = st.df in
          if not (Array.unsafe_get df.Df.fired id) then begin
            Array.unsafe_set df.Df.fired id true;
            st.stats.Stats.instrs_executed <-
              st.stats.Stats.instrs_executed + 1;
            Df.resolve_store df lsid (Df.store_result df id);
            retry_loads st
          end
    | Opcode.Bro | Opcode.Halt ->
        let next =
          match i.Bi.op with
          | Opcode.Bro
            when i.Bi.exit_idx >= 0 && i.Bi.exit_idx < Array.length img.Bi.exits
            ->
              let t = img.Bi.exits.(i.Bi.exit_idx) in
              if String.equal t Block.halt_exit then -1 else resolve t
          | _ -> -1
        in
        fun st ->
          let df = st.df in
          if not (Array.unsafe_get df.Df.fired id) then begin
            Array.unsafe_set df.Df.fired id true;
            st.stats.Stats.instrs_executed <-
              st.stats.Stats.instrs_executed + 1;
            Df.resolve_branch df id;
            st.next <- next
          end
    | ( Opcode.Iop _ | Opcode.Iopi _ | Opcode.Tst _ | Opcode.Tsti _
      | Opcode.Fop _ | Opcode.Ftst _ | Opcode.Un _ | Opcode.Movi | Opcode.Geni
      | Opcode.Mov4 | Opcode.Null | Opcode.Sand ) as op ->
        let compute : state -> Token.t =
          match i.Bi.arity with
          | 0 -> (
              match op with
              | Opcode.Movi | Opcode.Geni ->
                  let c = Token.of_int64 i.Bi.imm in
                  fun _ -> c
              | Opcode.Null -> fun _ -> Token.null_token
              | _ -> assert false)
          | 1 -> (
              match op with
              | Opcode.Un Opcode.Mov | Opcode.Mov4 ->
                  fun st -> Array.unsafe_get st.df.Df.left id
              | _ ->
                  let f = Alu.jit1 op ~imm:i.Bi.imm in
                  fun st -> f (Array.unsafe_get st.df.Df.left id))
          | _ ->
              let f = Alu.jit2 op in
              fun st ->
                let df = st.df in
                f (Array.unsafe_get df.Df.left id) (Array.unsafe_get df.Df.right id)
        in
        match (i.Bi.cls, predicated) with
        | Bi.Splain, false ->
            fun st ->
              let df = st.df in
              if not (Array.unsafe_get df.Df.fired id) then begin
                Array.unsafe_set df.Df.fired id true;
                let stats = st.stats in
                stats.Stats.instrs_executed <- stats.Stats.instrs_executed + 1;
                send st (compute st)
              end
        | Bi.Splain, true ->
            fun st ->
              let df = st.df in
              if not (Array.unsafe_get df.Df.fired id) then begin
                Array.unsafe_set df.Df.fired id true;
                let stats = st.stats in
                stats.Stats.instrs_executed <- stats.Stats.instrs_executed + 1;
                let tok = compute st in
                send st (if Array.unsafe_get df.Df.pred_exc id then Token.with_exc tok else tok)
              end
        | Bi.Smove, false ->
            fun st ->
              let df = st.df in
              if not (Array.unsafe_get df.Df.fired id) then begin
                Array.unsafe_set df.Df.fired id true;
                let stats = st.stats in
                stats.Stats.instrs_executed <- stats.Stats.instrs_executed + 1;
                stats.Stats.moves_executed <- stats.Stats.moves_executed + 1;
                send st (compute st)
              end
        | Bi.Smove, true ->
            fun st ->
              let df = st.df in
              if not (Array.unsafe_get df.Df.fired id) then begin
                Array.unsafe_set df.Df.fired id true;
                let stats = st.stats in
                stats.Stats.instrs_executed <- stats.Stats.instrs_executed + 1;
                stats.Stats.moves_executed <- stats.Stats.moves_executed + 1;
                let tok = compute st in
                send st (if Array.unsafe_get df.Df.pred_exc id then Token.with_exc tok else tok)
              end
        | cls, _ ->
            let bump : Stats.t -> unit =
              match cls with
              | Bi.Smove ->
                  fun s -> s.Stats.moves_executed <- s.Stats.moves_executed + 1
              | Bi.Snull ->
                  fun s -> s.Stats.nulls_executed <- s.Stats.nulls_executed + 1
              | Bi.Stest ->
                  fun s -> s.Stats.tests_executed <- s.Stats.tests_executed + 1
              | Bi.Splain -> fun _ -> ()
            in
            if predicated then (
              fun st ->
                let df = st.df in
                if not (Array.unsafe_get df.Df.fired id) then begin
                  Array.unsafe_set df.Df.fired id true;
                  let stats = st.stats in
                  stats.Stats.instrs_executed <-
                    stats.Stats.instrs_executed + 1;
                  bump stats;
                  let tok = compute st in
                  send st
                    (if Array.unsafe_get df.Df.pred_exc id then Token.with_exc tok else tok)
                end)
            else
              fun st ->
                let df = st.df in
                if not (Array.unsafe_get df.Df.fired id) then begin
                  Array.unsafe_set df.Df.fired id true;
                  let stats = st.stats in
                  stats.Stats.instrs_executed <-
                    stats.Stats.instrs_executed + 1;
                  bump stats;
                  send st (compute st)
                end
  in
  for id = 0 to n - 1 do
    fires.(id) <- compile_fire id
  done;
  let read_seeds =
    Array.mapi
      (fun rslot (r : Block.read) ->
        let sink = compose (Array.map sink_of img.Bi.rtargets.(rslot)) in
        let reg = r.Block.reg in
        fun st -> sink st (Token.of_int64 st.regs.(reg)))
      img.Bi.reads
  in
  let seeds = img.Bi.seeds in
  let enter st =
    for k = 0 to Array.length read_seeds - 1 do
      (Array.unsafe_get read_seeds k) st
    done;
    for k = 0 to Array.length seeds - 1 do
      (Array.unsafe_get checks (Array.unsafe_get seeds k)) st
    done
  in
  { img; init_missing; enter }

let build (imgp : Bi.program) : t =
  let resolve name =
    match Bi.find_index imgp name with Some i -> i | None -> -1
  in
  { imgp; cblocks = Array.map (compile_block ~resolve) imgp.Bi.blocks }

(* run the block [st] was prepared for to quiescence and commit it
   through the core; [Ok] carries the fault, if any *)
let exec_block (cb : cblock) st =
  match
    cb.enter st;
    Df.commit st.df ~regs:st.regs ~mem:st.mem
  with
  | faulted -> Ok faulted
  | exception Df.Malformed m -> Error m

(* ---- content-addressed code cache ----

   Same discipline as [Block_image.of_program]: keyed by program
   digest, shared across domains under a mutex, bounded so fuzz
   campaigns cannot grow it without limit. Compiled closures capture
   only immutable data, so sharing across domains is safe. *)

let cache : (string, t) Hashtbl.t = Hashtbl.create 64
let cache_mu = Mutex.create ()
let cache_cap = 256

let compile program =
  let key = Program.digest program in
  Mutex.lock cache_mu;
  let code =
    match Hashtbl.find_opt cache key with
    | Some code -> code
    | None ->
        let code = build (Bi.of_program program) in
        if Hashtbl.length cache >= cache_cap then Hashtbl.reset cache;
        Hashtbl.replace cache key code;
        code
  in
  Mutex.unlock cache_mu;
  code

let run program ~regs ~mem =
  let stats = Stats.create () in
  let code = compile program in
  let st = make_state code ~regs ~mem ~stats in
  let rec go idx fuel =
    if fuel <= 0 then Error "malformed: fuel exhausted"
    else
      let cb = code.cblocks.(idx) in
      prepare cb st;
      match exec_block cb st with
      | Error m -> Error ("malformed: " ^ m)
      | Ok (Some f) -> Error ("fault: " ^ f)
      | Ok None -> (
          match st.df.Df.branch_tgt with
          | None -> Ok stats
          | Some next ->
              if st.next < 0 then
                Error (Printf.sprintf "malformed: no block %s" next)
              else go st.next (fuel - 1))
  in
  let entry = code.imgp.Bi.entry in
  if entry < 0 then
    Error (Printf.sprintf "malformed: no block %s" program.Program.entry)
  else go entry Df.block_limit
