(* fuzz-oracle: seeded generated kernels through the differential
   oracle, as `bin/fuzz.exe --matrix` checks each kernel: every
   configuration, the per-pass checker and the block validator on, both
   timing backends, no cache.  Kernel [i] is [Gen.generate
   ~seed:(seed+i)], sized by the campaign schedule [Gen.size_for
   ~min_size:6 ~max_size:45 i].

   An op is one kernel.  It makes the calls [Oracle.check] makes, in
   the same order and with the same verdicts, but one at a time, so the
   traced run can put a span around each layer and the run can sum
   cycles and code size (Oracle.check returns neither).  The short
   mode re-checks every kernel with Oracle.check itself and fails on
   any verdict that differs.  The fuzz enumerator hook stays installed,
   as in bin/fuzz.exe. *)

module Oracle = Edge_fuzz.Oracle
module Gen = Edge_fuzz.Gen
module Stats = Edge_sim.Stats
module Mem = Edge_isa.Mem
module Conv = Edge_isa.Conventions

let ( let* ) = Result.bind
let span = Spans.span
let min_size = 6
let max_size = 45

type out = {
  skipped_blocks : int;  (** blocks the enumerator declined *)
  grid_cycles : int;
  inorder_cycles : int;
  instrs : int;  (** static, summed over the configurations *)
}

type verdict = Passed of out | Skipped

let enum_calls = ref 0

(* wrap the installed enumerator hook so its calls get spans; the
   count is taken in traced ops only *)
let wrap_hook () =
  Edge_fuzz.Ineff_oracle.install ();
  match !Dfp.Opt_ineff.cross_validate with
  | None -> ()
  | Some check ->
      Dfp.Opt_ineff.cross_validate :=
        Some
          (fun h p ->
            if !Spans.enabled then incr enum_calls;
            span "fuzz.enum" (fun () -> check h p))

let lower ast =
  span "lang.front" (fun () -> Edge_lang.Lower.lower ast)
  |> Result.map_error (fun e -> "lower: " ^ e)

let compile ~check cfg config =
  match Dfp.Driver.compile_cfg ~check cfg config with
  | Ok c -> Ok c
  | Error e when Edge_check.Diag.parse_key e <> None -> Error ("checker: " ^ e)
  | Error e -> Error ("compile: " ^ e)
  | exception Dfp.Opt_ineff.Breach msg -> Error ("checker: " ^ msg)

(* the outcome record Oracle compares, from one executor's run *)
let outcome regs mem = function
  | Ok _ ->
      Ok
        {
          Oracle.ret = regs.(Conv.result_reg);
          mem;
          stores = Mem.store_count mem;
          fault = false;
        }
  | Error e when Oracle.is_fault e ->
      Ok { Oracle.ret = 0L; mem; stores = 0; fault = true }
  | Error e -> Error e

let agree ~what reference r =
  span "harness.verify" (fun () ->
      if Oracle.agree reference r then Ok ()
      else Error (Oracle.describe_disagreement ~name:"" ~executor:what r reference))

let execute layer program run =
  let regs, mem = span "harness.verify" (fun () -> (Oracle.prep_regs (), Gen.default_mem ())) in
  let res = span layer (fun () -> run program ~regs ~mem) in
  let cycles = match res with Ok (s : Stats.t) -> s.Stats.cycles | Error _ -> 0 in
  Result.map (fun o -> (o, cycles)) (outcome regs mem res)
  |> Result.map_error (fun e -> layer ^ ": " ^ e)

(* unchecked-compile times, per configuration, of the kernel the next
   traced op checks *)
let unchecked_s = Array.make (List.length Oracle.configs) 0.

let check_config ~reference ast k (name, config) =
  let* cfg = lower ast in
  let parent = Spans.next () in
  let t0 = Spans.now () in
  let compiled = span "core.compile" (fun () -> compile ~check:true cfg config) in
  Spans.attach ~parent "check.checker" (Spans.now () -. t0 -. unchecked_s.(k));
  let* compiled = Result.map_error (fun e -> name ^ ": " ^ e) compiled in
  let program = compiled.Dfp.Driver.program in
  let* skipped =
    span "fuzz.validate" (fun () -> Edge_fuzz.Validate.program program)
    |> Result.map_error (fun es -> name ^ ": validator: " ^ String.concat "; " es)
  in
  let* r, _ = execute "sim.fsim" program (fun p ~regs ~mem -> Edge_sim.Functional.run p ~regs ~mem) in
  let* () = agree ~what:(name ^ " functional") reference r in
  let placement n =
    Option.value ~default:[||] (List.assoc_opt n compiled.Dfp.Driver.placements)
  in
  let backend layer machine =
    let* r, cycles =
      execute layer program (fun p ~regs ~mem ->
          Edge_sim.Backend.run ~machine ~placement p ~regs ~mem)
    in
    let* () = agree ~what:(name ^ " " ^ layer) reference r in
    Ok cycles
  in
  (* Oracle.matrix_machines: the grid, then the in-order core *)
  let* grid_cycles = backend "sim.grid" Edge_sim.Machine.default in
  let* inorder_cycles = backend "sim.inorder" Edge_sim.Machine.inorder_edge in
  Ok
    {
      skipped_blocks = skipped;
      grid_cycles;
      inorder_cycles;
      instrs = compiled.Dfp.Driver.static_instrs;
    }

let exec ast =
  match span "lang.interp" (fun () -> Oracle.run_reference ast) with
  | exception Oracle.Skip -> Ok Skipped
  | Error f -> Error f.Oracle.message
  | Ok reference ->
      let rec go acc k = function
        | [] -> Ok (Passed acc)
        | c :: rest ->
            let* o = check_config ~reference ast k c in
            go
              {
                skipped_blocks = acc.skipped_blocks + o.skipped_blocks;
                grid_cycles = acc.grid_cycles + o.grid_cycles;
                inorder_cycles = acc.inorder_cycles + o.inorder_cycles;
                instrs = acc.instrs + o.instrs;
              }
              (k + 1) rest
      in
      go { skipped_blocks = 0; grid_cycles = 0; inorder_cycles = 0; instrs = 0 } 0 Oracle.configs

(* the unchecked compile of every configuration, outside the op: the
   checked compile's excess over it is the checker's share *)
let time_unchecked ast =
  List.iteri
    (fun k (_, config) ->
      match Edge_lang.Lower.lower ast with
      | Error _ -> unchecked_s.(k) <- 0.
      | Ok cfg ->
          let t0 = Spans.now () in
          ignore (compile ~check:false cfg config);
          unchecked_s.(k) <- Spans.now () -. t0)
    Oracle.configs

let same_verdict ast mine =
  match (Oracle.check ~machines:Oracle.matrix_machines ast, mine) with
  | exception Oracle.Skip -> mine = Ok Skipped
  | Ok n, Ok (Passed o) -> n = o.skipped_blocks
  | Error _, Error _ -> true
  | _ -> false

let run ~seed ~seconds ~trace ~short : Report.run =
  wrap_hook ();
  let n = if short then 3 else 6 * seconds in
  let gen_s = ref 0. in
  let setup_s, kernels, _ =
    Report.repeat_setup 25 (fun () ->
        let t0 = Spans.now () in
        let ks =
          Array.init n (fun i ->
              Gen.generate ~seed:(seed + i) ~size:(Gen.size_for ~min_size ~max_size i))
        in
        gen_s := Spans.now () -. t0;
        (ks, fun () -> ()))
  in
  Report.log "fuzz-oracle: %d kernels" n;
  enum_calls := 0;
  let o =
    Ops.run ~trace
      ~before_traced:(fun i -> time_unchecked kernels.(i))
      (fun i -> exec kernels.(i))
      n
  in
  let names i = Printf.sprintf "kernel seed=%d size=%d" (seed + i) (Gen.size_for ~min_size ~max_size i) in
  let failed = ref (Ops.failures names o) in
  if short then
    Array.iteri
      (fun i r ->
        if not (same_verdict kernels.(i) r) then begin
          Report.log "FAILED %s: verdict differs from Oracle.check" (names i);
          incr failed
        end)
      o.Ops.results;
  let passed = List.filter_map (function Ok (Passed x) -> Some x | _ -> None) (Array.to_list o.Ops.results) in
  let skipped = Array.fold_left (fun a r -> if r = Ok Skipped then a + 1 else a) 0 o.Ops.results in
  let sum f = List.fold_left (fun a x -> a + f x) 0 passed in
  let verified = List.length passed in
  let facts =
    [
      ("setup_s", setup_s);
      ("ops_per_s", float_of_int verified /. o.Ops.window_s);
      ("peak_rss_mb", Report.peak_rss_mb None);
      ("sim.grid_cycles", float_of_int (sum (fun x -> x.grid_cycles)));
      ("sim.inorder_cycles", float_of_int (sum (fun x -> x.inorder_cycles)));
      ("code_instrs", float_of_int (sum (fun x -> x.instrs)));
      ("fuzz.enum_calls", float_of_int !enum_calls);
      ("fuzz.validate_skipped", float_of_int (sum (fun x -> x.skipped_blocks)));
      ("fuzz.oracle_skips", float_of_int skipped);
      ("fuzz.gen_ms", !gen_s *. 1000. /. float_of_int n);
    ]
  in
  { Report.attempted = n; failed = !failed; facts }
