(* Entry points for the per-pass static verifier, plus the global
   enablement switch.

   The checker is off by default for plain builds (it costs compile
   time) and turned on by:
     - [set_enabled true] (the --check flags on bin/tsim and
       bench/main, and the test suite),
     - explicitly passing ~check:true to Driver.compile_cfg (the fuzz
       oracle does, so differential fuzzing always runs it). *)

module Hb = Edge_ir.Hblock
module Tac = Edge_ir.Tac
module Temp = Edge_ir.Temp
module Label = Edge_ir.Label
module Cfg = Edge_ir.Cfg

let forced = ref false
let enabled () = !forced
let set_enabled b = forced := b

(* Run [f] with the checker forced off — bin/tsim uses this to
   recompile a failing program so the offending block's trace can be
   captured alongside the diagnostic. *)
let without_check f =
  let saved = !forced in
  forced := false;
  Fun.protect ~finally:(fun () -> forced := saved) f

(* ---- per-layer checks ---- *)

type result = { diags : Diag.t list; skipped : int }

let empty = { diags = []; skipped = 0 }

let merge a b = { diags = a.diags @ b.diags; skipped = a.skipped + b.skipped }

(* a passing verdict is reused for identical content judged earlier for
   the same program (see [Scope]); the key leaves out [pass], which
   only failures mention *)
let of_verdict = function
  | Ok skipped -> { diags = []; skipped = Bool.to_int skipped }
  | Error ds -> { diags = ds; skipped = 0 }

let hblocks ~pass (hs : Hb.t list) : result =
  List.fold_left
    (fun acc h ->
      merge acc
        (of_verdict
           (Scope.verdict ~tag:"hblock_check" h (fun () ->
                match Hblock_check.check ~pass h with
                | Hblock_check.Clean -> Ok false
                | Hblock_check.Skipped _ -> Ok true
                | Hblock_check.Diags ds -> Error ds))))
    empty hs

let block ~pass (b : Edge_isa.Block.t) : result =
  of_verdict
    (Scope.verdict ~tag:"block_check" b (fun () ->
         match Block_check.check ~pass b with
         | Block_check.Clean -> Ok false
         | Block_check.Skipped _ -> Ok true
         | Block_check.Diags ds -> Error ds))

let program ?(pass = "codegen") (p : Edge_isa.Program.t) : result =
  List.fold_left
    (fun acc (_, b) -> merge acc (block ~pass b))
    empty p.Edge_isa.Program.blocks

(* CFG sanity after the classic optimizer: SSA fully destructed, the
   block graph closed, every use defined somewhere (or a parameter) *)
let cfg ~pass (c : Cfg.t) : result =
  let diags = ref [] in
  let add ~block ~where invariant msg =
    diags := Diag.make ~pass ~block ~where invariant msg :: !diags
  in
  let defined = ref (Temp.Set.of_list c.Cfg.params) in
  Label.Map.iter
    (fun _ (b : Cfg.bblock) ->
      List.iter
        (fun i ->
          match Tac.def i with
          | Some d -> defined := Temp.Set.add d !defined
          | None -> ())
        b.Cfg.instrs)
    c.Cfg.blocks;
  Label.Map.iter
    (fun label (b : Cfg.bblock) ->
      List.iteri
        (fun idx i ->
          (match i with
          | Tac.Phi _ ->
              add ~block:label
                ~where:(Printf.sprintf "I%d" idx)
                Diag.Structure "phi survives SSA destruction"
          | _ -> ());
          List.iter
            (fun u ->
              if not (Temp.Set.mem u !defined) then
                add ~block:label
                  ~where:(Printf.sprintf "I%d" idx)
                  Diag.Def_use
                  (Format.asprintf "use of undefined temp %a" Temp.pp u))
            (Tac.uses i))
        b.Cfg.instrs;
      List.iter
        (fun u ->
          if not (Temp.Set.mem u !defined) then
            add ~block:label ~where:"term" Diag.Def_use
              (Format.asprintf "use of undefined temp %a" Temp.pp u))
        (Tac.term_uses b.Cfg.term);
      List.iter
        (fun s ->
          if not (Label.Map.mem s c.Cfg.blocks) then
            add ~block:label ~where:"term" Diag.Structure
              (Format.asprintf "terminator targets unknown block %a" Label.pp
                 s))
        (Tac.term_succs b.Cfg.term))
    c.Cfg.blocks;
  { diags = List.rev !diags; skipped = 0 }

(* register allocation: every live temp carries a register; within a
   block's live-in and live-out sets, registers are pairwise distinct *)
let alloc ~pass ~block ~(reg_of : Temp.t -> int option)
    ~(live_in : Temp.Set.t) ~(live_out : Temp.Set.t) : result =
  let diags = ref [] in
  let add where msg =
    diags := Diag.make ~pass ~block ~where Diag.Alloc msg :: !diags
  in
  let check_set what set =
    let seen : (int, Temp.t) Hashtbl.t = Hashtbl.create 16 in
    Temp.Set.iter
      (fun t ->
        match reg_of t with
        | None ->
            add
              (Format.asprintf "%a" Temp.pp t)
              (Format.asprintf "%s temp %a has no register" what Temp.pp t)
        | Some r -> (
            match Hashtbl.find_opt seen r with
            | Some t' ->
                add
                  (Format.asprintf "%a" Temp.pp t)
                  (Format.asprintf "%s temps %a and %a share register g%d" what
                     Temp.pp t' Temp.pp t r)
            | None -> Hashtbl.replace seen r t))
      set
  in
  check_set "live-in" live_in;
  check_set "live-out" live_out;
  { diags = List.rev !diags; skipped = 0 }

(* schedule placement: one tile per instruction, all in range for the
   machine the schedule was computed against *)
let placement ?(machine = Edge_isa.Machine_desc.default) ~pass
    (b : Edge_isa.Block.t) (p : int array) : result =
  let num_tiles = Edge_isa.Machine_desc.num_tiles machine in
  let diags = ref [] in
  let add where msg =
    diags :=
      Diag.make ~pass ~block:b.Edge_isa.Block.name ~where Diag.Placement msg
      :: !diags
  in
  let n = Array.length b.Edge_isa.Block.instrs in
  if Array.length p <> n then
    add "-"
      (Printf.sprintf "placement has %d entries for %d instructions"
         (Array.length p) n);
  Array.iteri
    (fun i tile ->
      if tile < 0 || tile >= num_tiles then
        add
          (Printf.sprintf "I%d" i)
          (Printf.sprintf "I%d placed on tile %d (grid has %d)" i tile
             num_tiles))
    p;
  { diags = List.rev !diags; skipped = 0 }

(* render a result as a driver error message: the first diagnostic,
   with the rest counted so nothing is silently dropped *)
let to_error (r : result) : string option =
  match r.diags with
  | [] -> None
  | [ d ] -> Some (Diag.to_string d)
  | d :: rest ->
      Some
        (Printf.sprintf "%s (+%d more diagnostics)" (Diag.to_string d)
           (List.length rest))
