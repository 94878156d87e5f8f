(* The per-block judges' answers, pinned.  One line per block:

     name variant md5(Block.validate) md5(Validate.block ~max_vars:0)
       md5(Validate.block) md5(Check.block) md5(Gate.variables)

   The blocks are every distinct block the example, corpus and
   generated kernels compile to under the oracle configurations
   ([Compiled_pins.kernel_inputs], named after their first compile),
   seeded structural mutants of each, and hand-built blocks (the last
   five with an id or a target out of range; their line has [-] for
   the enumeration variables).  A variant [-] is the block itself; a
   mutant retargets one target, drops one, flips one predicate
   polarity, gives one store another store's lsid, or swaps two
   instruction slots.  A mutant on which a judge raises is left out;
   the last line counts them.  A change to any verdict, message,
   witness path, skip or enumeration variable shows up here.

   [make regen-golden] writes test/golden/judges.digests; the "judges
   pinned" test recomputes every line and compares. *)

module B = Edge_isa.Block
module I = Edge_isa.Instr
module O = Edge_isa.Opcode
module T = Edge_isa.Target
module Validate = Edge_fuzz.Validate
module Check = Edge_check.Check
module Diag = Edge_check.Diag
module Gate = Edge_ir.Gate

let file_name = "judges.digests"
let md5 = Compiled_pins.md5

(* ---- hand-built blocks ---- *)

let ti id slot = T.To_instr { id; slot }

(* an absorbed predicate closes a static cycle between two fired
   instructions: I2 feeds I3, whose false test reaches I2's predicate
   after I2 fired on I1's *)
let pcycle =
  {
    B.name = "pcycle";
    instrs =
      [|
        I.make ~id:0 ~opcode:O.Movi ~imm:1L ~targets:[ ti 1 T.Left ] ();
        I.make ~id:1 ~opcode:(O.Tsti O.Eq) ~imm:1L ~targets:[ ti 2 T.Pred ] ();
        I.make ~id:2 ~opcode:O.Movi ~pred:I.If_true ~imm:0L
          ~targets:[ ti 3 T.Left ] ();
        I.make ~id:3 ~opcode:(O.Tsti O.Eq) ~imm:5L ~targets:[ ti 2 T.Pred ] ();
        I.make ~id:4 ~opcode:O.Halt ();
      |];
    reads = [||];
    writes = [||];
    store_lsids = [];
    exits = [| B.halt_exit |];
  }

(* a block whose BDDs pass the checker's node budget: 16 test pairs
   (a_i, then b_i predicated on a_i) feed one predicate-OR, whose fire
   region OR (a_i && b_i) needs 2^16 nodes in the variable order a,
   then b *)
let over_budget =
  let n = 16 in
  {
    B.name = "over_budget";
    instrs =
      Array.of_list
        (List.init n (fun r ->
             I.make ~id:r ~opcode:(O.Tsti O.Eq) ~imm:1L
               ~targets:[ ti (n + r) T.Pred ] ())
        @ List.init n (fun r ->
              I.make ~id:(n + r) ~opcode:(O.Tsti O.Eq) ~pred:I.If_true ~imm:2L
                ~targets:[ ti (2 * n) T.Pred ] ())
        @ [ I.make ~id:(2 * n) ~opcode:O.Bro ~pred:I.If_true ~exit_idx:0 () ]);
    reads =
      Array.init n (fun r ->
          { B.rslot = r; reg = 3 + r; rtargets = [ ti r T.Left; ti (n + r) T.Left ] });
    writes = [||];
    store_lsids = [];
    exits = [| "@next" |];
  }

let hand_built = [ pcycle; over_budget ]

(* two-instruction blocks whose ids or targets are out of range, each
   an error [Block.validate] reports *)
let malformed =
  let two name first =
    {
      B.name;
      instrs = [| first; I.make ~id:1 ~opcode:O.Halt () |];
      reads = [||];
      writes = [||];
      store_lsids = [];
      exits = [| B.halt_exit |];
    }
  in
  let movi ?(id = 0) targets = I.make ~id ~opcode:O.Movi ~imm:1L ~targets () in
  [
    two "target_i5" (movi [ ti 5 T.Left ]);
    two "id7_in_slot0" (movi ~id:7 []);
    two "write3_no_writes" (movi [ T.To_write 3 ]);
    two "target_i200" (movi [ ti 200 T.Left ]);
    two "write40" (movi [ T.To_write 40 ]);
  ]

(* ---- mutants ---- *)

let with_instr (b : B.t) idx f =
  let instrs = Array.copy b.B.instrs in
  instrs.(idx) <- f instrs.(idx);
  { b with B.instrs }

let with_read (b : B.t) r f =
  let reads = Array.copy b.B.reads in
  reads.(r) <- f reads.(r);
  { b with B.reads }

(* the block's target lists: instructions first, then reads *)
let target_sources (b : B.t) =
  List.init (Array.length b.B.instrs) (fun i -> `I i)
  @ List.init (Array.length b.B.reads) (fun r -> `R r)

let targets_of (b : B.t) = function
  | `I i -> b.B.instrs.(i).I.targets
  | `R r -> b.B.reads.(r).B.rtargets

let with_targets (b : B.t) src targets =
  match src with
  | `I i -> with_instr b i (fun ins -> { ins with I.targets })
  | `R r -> with_read b r (fun rd -> { rd with B.rtargets = targets })

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))

(* one target of a random source, as (source, position) *)
let pick_target rng b =
  pick rng
    (List.concat_map
       (fun src -> List.mapi (fun k _ -> (src, k)) (targets_of b src))
       (target_sources b))

(* another in-range target: an operand of any instruction or any write *)
let random_target rng (b : B.t) =
  let n = Array.length b.B.instrs and nw = Array.length b.B.writes in
  let k = Random.State.int rng ((3 * n) + nw) in
  if k < 3 * n then
    ti (k / 3) (match k mod 3 with 0 -> T.Left | 1 -> T.Right | _ -> T.Pred)
  else T.To_write (k - (3 * n))

let retarget rng b =
  Option.map
    (fun (src, k) ->
      let t = random_target rng b in
      with_targets b src
        (List.mapi (fun j old -> if j = k then t else old) (targets_of b src)))
    (pick_target rng b)

let drop rng b =
  Option.map
    (fun (src, k) ->
      with_targets b src (List.filteri (fun j _ -> j <> k) (targets_of b src)))
    (pick_target rng b)

let flip rng (b : B.t) =
  let predicated =
    List.filter
      (fun i -> I.is_predicated b.B.instrs.(i))
      (List.init (Array.length b.B.instrs) Fun.id)
  in
  Option.map
    (fun i ->
      with_instr b i (fun ins ->
          {
            ins with
            I.pred = (if ins.I.pred = I.If_true then I.If_false else I.If_true);
          }))
    (pick rng predicated)

let dup_lsid rng (b : B.t) =
  let stores =
    List.filter
      (fun i -> match b.B.instrs.(i).I.opcode with O.St _ -> true | _ -> false)
      (List.init (Array.length b.B.instrs) Fun.id)
  in
  let pairs =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j ->
            if b.B.instrs.(i).I.lsid <> b.B.instrs.(j).I.lsid then Some (i, j)
            else None)
          stores)
      stores
  in
  Option.map
    (fun (i, j) ->
      with_instr b i (fun ins -> { ins with I.lsid = b.B.instrs.(j).I.lsid }))
    (pick rng pairs)

let swap rng (b : B.t) =
  let n = Array.length b.B.instrs in
  if n < 2 then None
  else
    let i = Random.State.int rng n in
    let j = (i + 1 + Random.State.int rng (n - 1)) mod n in
    let instrs = Array.copy b.B.instrs in
    instrs.(i) <- b.B.instrs.(j);
    instrs.(j) <- b.B.instrs.(i);
    Some { b with B.instrs }

let mutators =
  [
    ("retarget", retarget);
    ("drop", drop);
    ("flip", flip);
    ("dup-lsid", dup_lsid);
    ("swap", swap);
  ]

(* ---- the judges' answers ---- *)

let render_validate = function
  | Ok skipped -> "ok " ^ string_of_bool skipped
  | Error es -> String.concat "\n" ("error" :: es)

let render_check (r : Check.result) =
  String.concat "\n"
    (string_of_int r.Check.skipped :: List.map Diag.to_string r.Check.diags)

let render_gate (b : B.t) =
  let names, var_of, count = Gate.variables b (Gate.boolean_relevant b) in
  let sharing =
    Hashtbl.fold
      (fun idx (pos, neg) acc -> Printf.sprintf "%d:%d:%b" idx pos neg :: acc)
      var_of []
    |> List.sort compare
  in
  String.concat "\n"
    (string_of_int count :: String.concat " " names :: sharing)

(* [gate:false] leaves out the enumeration variables, which are not
   defined for a block whose ids or targets are out of range *)
let judged ~gate (b : B.t) =
  List.map md5
    [
      (match B.validate b with
      | Ok () -> "ok"
      | Error es -> String.concat "\n" ("error" :: es));
      render_validate (Validate.block ~max_vars:0 b);
      render_validate (Validate.block b);
      render_check (Check.block ~pass:"pin" b);
    ]
  @ [ (if gate then md5 (render_gate b) else "-") ]

let line ?(gate = true) name variant b =
  String.concat " " (name :: variant :: judged ~gate b)

(* every distinct compiled block, named after its first compile;
   computed once per process *)
let compiled_blocks =
  let blocks =
    lazy
      (let seen = Hashtbl.create 1024 in
       Compiled_pins.without_enum_hook (fun () ->
           List.concat_map
             (fun (name, config_name, config, lower) ->
               match
                 Result.bind (lower ()) (fun cfg ->
                     Dfp.Driver.compile_cfg ~check:false cfg config)
               with
               | Error _ -> []
               | Ok c ->
                   List.filter_map
                     (fun (bname, b) ->
                       let key = Marshal.to_string b [] in
                       if Hashtbl.mem seen key then None
                       else begin
                         Hashtbl.add seen key ();
                         Some (String.concat "/" [ name; config_name; bname ], b)
                       end)
                     c.Dfp.Driver.program.Edge_isa.Program.blocks)
             (Compiled_pins.kernel_inputs ())))
  in
  fun () -> Lazy.force blocks

(* every pinned block, as (name, variant, gate, block): each compiled
   block ([-]) followed by its mutants, then the hand-built and the
   malformed blocks, whose lines have no enumeration variables *)
let blocks () =
  let compiled =
    List.concat
      (List.mapi
         (fun k (name, b) ->
           let rng = Random.State.make [| k |] in
           (name, "-", true, b)
           :: List.filter_map
                (fun (variant, mutate) ->
                  Option.map (fun m -> (name, variant, true, m)) (mutate rng b))
                mutators)
         (compiled_blocks ()))
  in
  compiled
  @ List.map (fun (b : B.t) -> ("hand/" ^ b.B.name, "-", true, b)) hand_built
  @ List.map
      (fun (b : B.t) -> ("malformed/" ^ b.B.name, "-", false, b))
      malformed

(* the pinned lines of the current judges; each judge runs, since no
   program is named while they do, so no verdict is reused.  A mutant
   on which a judge raises is left out. *)
let lines () =
  let blocks = blocks () in
  Edge_check.Scope.leave ();
  let left_out = ref 0 in
  List.filter_map
    (fun (name, variant, gate, b) ->
      match line ~gate name variant b with
      | l -> Some l
      | exception e when variant = "-" -> raise e
      | exception _ ->
          incr left_out;
          None)
    blocks
  @ [ Printf.sprintf "left-out %d" !left_out ]

let path () = Filename.concat (Goldens.golden_dir ()) file_name
