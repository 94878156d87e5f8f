(* Observability-layer regression suite (lib/obs + the instrumented
   simulator and compiler).

   Three layers:

   - golden traces: the deterministic text trace of each
     examples/kernels/*.k kernel under two configurations must match the
     blessed bytes in test/golden/ exactly (regenerate deliberately with
     `make regen-golden`);
   - metric invariants: the Metrics registry, the event stream and the
     simulator's own Stats are three views of one execution and must
     agree — on the golden kernels under both configurations and on
     every fuzz-corpus reproducer;
   - determinism: rendering the golden set through the domain pool gives
     byte-identical traces for -j 1/2/4. *)

module Tk = Edge_harness.Tracekit
module Mx = Edge_obs.Metrics
module Ev = Edge_obs.Event
module Stats = Edge_sim.Stats
module G = Test_support.Goldens

let trace_kernel kernel config =
  let source = G.kernel_source kernel in
  match Tk.trace_source ~source ~config () with
  | Ok t -> t
  | Error e -> Alcotest.failf "%s: %s" kernel e

(* ---------- golden traces ---------- *)

let golden_case (kernel, config_name, config) =
  Alcotest.test_case
    (Printf.sprintf "golden %s/%s" kernel config_name)
    `Quick
    (fun () ->
      let t = trace_kernel kernel config in
      let text = Tk.render ~kernel ~config:config_name t in
      let path =
        Filename.concat (G.golden_dir ()) (G.golden_name kernel config_name)
      in
      if not (Sys.file_exists path) then
        Alcotest.failf "%s missing; run `make regen-golden`" path;
      let golden = G.read_file path in
      match Edge_obs.Trace.first_divergence golden text with
      | None -> ()
      | Some (line, want, got) ->
          Alcotest.failf
            "trace diverges from %s at line %d\n  golden: %s\n  got:    %s\n\
             (if the schedule change is intentional, run `make regen-golden`)"
            path line want got)

(* ---------- metric invariants ---------- *)

(* null tokens may only be delivered to block outputs of the nulled path:
   register writes, stores, and the mov/null trees fanning out to them
   (Section 4.2) *)
let null_receivers = [ "-"; "sb"; "sw"; "sd"; "mov"; "mov4"; "null" ]

let check_invariants name (t : Tk.traced) =
  let m = t.Tk.metrics and stats = t.Tk.stats in
  let ci what a b =
    if a <> b then Alcotest.failf "%s: %s: %d <> %d" name what a b
  in
  (* registry vs Stats: the counters mirror the simulator's own numbers *)
  ci "blocks committed" (Mx.counter m "sim.blocks_committed")
    stats.Stats.blocks_committed;
  ci "blocks squashed" (Mx.counter m "sim.blocks_squashed")
    stats.Stats.blocks_flushed;
  ci "instrs committed" (Mx.counter m "sim.instrs_committed")
    stats.Stats.instrs_committed;
  ci "committed + squashed = executed"
    (Mx.counter m "sim.instrs_committed" + Mx.counter m "sim.instrs_squashed")
    stats.Stats.instrs_executed;
  ci "operand hops" (Mx.counter m "sim.operand_hops") stats.Stats.operand_hops;
  ci "dcache accesses" (Mx.counter m "sim.dcache_accesses")
    stats.Stats.dcache_accesses;
  ci "dcache misses" (Mx.counter m "sim.dcache_misses")
    stats.Stats.dcache_misses;
  ci "icache accesses" (Mx.counter m "sim.icache_accesses")
    stats.Stats.icache_accesses;
  ci "icache misses" (Mx.counter m "sim.icache_misses")
    stats.Stats.icache_misses;
  ci "branch mispredicts" (Mx.counter m "sim.branch_mispredicts")
    stats.Stats.branch_mispredicts;
  (* histograms: one sample per committed block *)
  ci "occupancy samples" (Mx.hist_total (Mx.histogram m "block.occupancy"))
    stats.Stats.blocks_committed;
  ci "null-token samples" (Mx.hist_total (Mx.histogram m "block.null_tokens"))
    stats.Stats.blocks_committed;
  ci "mispredicated samples"
    (Mx.hist_total (Mx.histogram m "block.mispredicated"))
    stats.Stats.blocks_committed;
  (* events vs both: the trace is a third view of the same run *)
  let count p = List.length (List.filter p t.Tk.events) in
  ci "Dispatch events"
    (count (function Ev.Dispatch _ -> true | _ -> false))
    (Mx.counter m "sim.blocks_dispatched");
  ci "Commit events"
    (count (function Ev.Commit _ -> true | _ -> false))
    stats.Stats.blocks_committed;
  ci "Squash events"
    (count (function Ev.Squash _ -> true | _ -> false))
    stats.Stats.blocks_flushed;
  let issues = count (function Ev.Issue _ -> true | _ -> false) in
  if issues < stats.Stats.instrs_executed then
    Alcotest.failf "%s: %d Issue events < %d executed instructions" name
      issues stats.Stats.instrs_executed;
  let wakeups = count (function Ev.Wakeup _ -> true | _ -> false) in
  if wakeups < issues then
    Alcotest.failf "%s: %d wakeups < %d issues" name wakeups issues;
  let commit_instrs =
    List.fold_left
      (fun a e -> match e with Ev.Commit { instrs; _ } -> a + instrs | _ -> a)
      0 t.Tk.events
  in
  ci "sum of per-block committed instrs" commit_instrs
    stats.Stats.instrs_committed;
  let commit_nulls =
    List.fold_left
      (fun a e -> match e with Ev.Commit { nulls; _ } -> a + nulls | _ -> a)
      0 t.Tk.events
  in
  ci "null tokens per committed block" commit_nulls
    (Mx.hist_sum (Mx.histogram m "block.null_tokens"));
  (* per committed frame: the Commit's null count equals the null Token
     events addressed to that frame *)
  let nulls_by_seq = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e with
      | Ev.Token { seq; null = true; _ } ->
          Hashtbl.replace nulls_by_seq seq
            (1 + Option.value ~default:0 (Hashtbl.find_opt nulls_by_seq seq))
      | _ -> ())
    t.Tk.events;
  List.iter
    (fun e ->
      match e with
      | Ev.Commit { seq; nulls; _ } ->
          ci
            (Printf.sprintf "null tokens of seq %d" seq)
            (Option.value ~default:0 (Hashtbl.find_opt nulls_by_seq seq))
            nulls
      | _ -> ())
    t.Tk.events;
  (* null tokens resolve outputs: writes, stores and their fan-out *)
  List.iter
    (fun e ->
      match e with
      | Ev.Token { op; null = true; dst; _ } ->
          if not (List.mem op null_receivers) then
            Alcotest.failf "%s: null token delivered to %s (%s)" name dst op
      | _ -> ())
    t.Tk.events

let invariant_case (kernel, config_name, config) =
  Alcotest.test_case
    (Printf.sprintf "invariants %s/%s" kernel config_name)
    `Quick
    (fun () ->
      check_invariants
        (kernel ^ "/" ^ config_name)
        (trace_kernel kernel config))

(* ---------- in-order backend goldens and invariants ---------- *)

let trace_kernel_inorder kernel config =
  let source = G.kernel_source kernel in
  match Tk.trace_source ~machine:G.inorder_machine ~source ~config () with
  | Ok t -> t
  | Error e -> Alcotest.failf "%s (inorder): %s" kernel e

let inorder_golden_case (kernel, config_name, config) =
  Alcotest.test_case
    (Printf.sprintf "golden %s/%s inorder" kernel config_name)
    `Quick
    (fun () ->
      let t = trace_kernel_inorder kernel config in
      let text =
        Tk.render
          ~machine:(Edge_sim.Machine.name G.inorder_machine)
          ~kernel ~config:config_name t
      in
      let path =
        Filename.concat (G.golden_dir ())
          (G.golden_name ~machine:G.inorder_tag kernel config_name)
      in
      if not (Sys.file_exists path) then
        Alcotest.failf "%s missing; run `make regen-golden`" path;
      let golden = G.read_file path in
      match Edge_obs.Trace.first_divergence golden text with
      | None -> ()
      | Some (line, want, got) ->
          Alcotest.failf
            "trace diverges from %s at line %d\n  golden: %s\n  got:    %s\n\
             (if the timing change is intentional, run `make regen-golden`)"
            path line want got)

(* the in-order core has no speculation, so its three views must agree
   more tightly than the grid's: every dispatched block commits, nothing
   is ever squashed, and every executed instruction commits *)
let check_inorder_invariants name (t : Tk.traced) =
  let m = t.Tk.metrics and stats = t.Tk.stats in
  let ci what a b =
    if a <> b then Alcotest.failf "%s: %s: %d <> %d" name what a b
  in
  ci "blocks committed" (Mx.counter m "sim.blocks_committed")
    stats.Stats.blocks_committed;
  ci "instrs committed" (Mx.counter m "sim.instrs_committed")
    stats.Stats.instrs_committed;
  ci "committed = executed (no speculation)" stats.Stats.instrs_committed
    stats.Stats.instrs_executed;
  ci "no squashed blocks" 0 stats.Stats.blocks_flushed;
  ci "dispatched = committed" (Mx.counter m "sim.blocks_dispatched")
    stats.Stats.blocks_committed;
  ci "dcache accesses" (Mx.counter m "sim.dcache_accesses")
    stats.Stats.dcache_accesses;
  ci "dcache misses" (Mx.counter m "sim.dcache_misses")
    stats.Stats.dcache_misses;
  ci "icache accesses" (Mx.counter m "sim.icache_accesses")
    stats.Stats.icache_accesses;
  ci "icache misses" (Mx.counter m "sim.icache_misses")
    stats.Stats.icache_misses;
  ci "branch mispredicts" (Mx.counter m "sim.branch_mispredicts")
    stats.Stats.branch_mispredicts;
  ci "branch resolutions" (Mx.counter m "sim.branch_resolutions")
    stats.Stats.branch_predictions;
  ci "occupancy samples" (Mx.hist_total (Mx.histogram m "block.occupancy"))
    stats.Stats.blocks_committed;
  let count p = List.length (List.filter p t.Tk.events) in
  ci "Dispatch events"
    (count (function Ev.Dispatch _ -> true | _ -> false))
    stats.Stats.blocks_committed;
  ci "Commit events"
    (count (function Ev.Commit _ -> true | _ -> false))
    stats.Stats.blocks_committed;
  ci "Squash events" (count (function Ev.Squash _ -> true | _ -> false)) 0;
  (* every fired instruction issues exactly once; the only firings not
     counted as executed are stores resolved by an incoming null token
     (functional.ml counts those under nulls_executed) *)
  let issues = count (function Ev.Issue _ -> true | _ -> false) in
  if
    issues < stats.Stats.instrs_executed
    || issues > stats.Stats.instrs_executed + stats.Stats.nulls_executed
  then
    Alcotest.failf "%s: %d Issue events outside [%d, %d+%d]" name issues
      stats.Stats.instrs_executed stats.Stats.instrs_executed
      stats.Stats.nulls_executed;
  let commit_instrs =
    List.fold_left
      (fun a e -> match e with Ev.Commit { instrs; _ } -> a + instrs | _ -> a)
      0 t.Tk.events
  in
  ci "sum of per-block committed instrs" commit_instrs
    stats.Stats.instrs_committed;
  (* one block in flight: the event stream is nondecreasing in cycle
     as emitted (the collector never reorders) *)
  ignore
    (List.fold_left
       (fun prev e ->
         let c = Ev.cycle e in
         if c < prev then
           Alcotest.failf "%s: event cycle %d after %d: %s" name c prev
             (Ev.to_line e);
         c)
       0 t.Tk.events)

let inorder_invariant_case (kernel, config_name, config) =
  Alcotest.test_case
    (Printf.sprintf "invariants %s/%s inorder" kernel config_name)
    `Quick
    (fun () ->
      check_inorder_invariants
        (kernel ^ "/" ^ config_name ^ "/inorder")
        (trace_kernel_inorder kernel config))

(* the fuzz corpus — minimized reproducers of past bugs — is exactly the
   code most likely to stress odd trace paths *)
let compile_stage_error e =
  List.exists
    (fun p -> String.starts_with ~prefix:p e)
    [ "parse:"; "lower:"; "compile:" ]

let corpus_invariant_case (name, source) =
  Alcotest.test_case ("invariants corpus " ^ name) `Quick (fun () ->
      match Tk.trace_source ~source ~config:Dfp.Config.both () with
      | Ok t -> check_invariants name t
      | Error e when compile_stage_error e -> Alcotest.failf "%s: %s" name e
      | Error _ ->
          (* some reproducers fault at runtime by construction (that is
             the bug they minimize); tracing only observes completed
             runs, so skip those *)
          ())

(* ---------- determinism across the domain pool ---------- *)

let render_all jobs =
  Edge_parallel.Pool.run ~jobs
    (fun (kernel, config_name, config) ->
      Tk.render ~kernel ~config:config_name (trace_kernel kernel config))
    (G.all ())

let pool_determinism () =
  let base = render_all 1 in
  List.iter
    (fun jobs ->
      let got = render_all jobs in
      List.iteri
        (fun i text ->
          let want = List.nth base i in
          if not (String.equal want text) then
            match Edge_obs.Trace.first_divergence want text with
            | Some (line, a, b) ->
                Alcotest.failf "-j %d trace %d diverges at line %d: %s vs %s"
                  jobs i line a b
            | None -> ())
        got)
    [ 2; 4 ]

(* ---------- compiler pass counters ---------- *)

let pass_counters () =
  let source = G.kernel_source "sand_gate" in
  match Tk.compile_source source Dfp.Config.both with
  | Error e -> Alcotest.failf "compile: %s" e
  | Ok c ->
      let pc = c.Dfp.Driver.pass_counters in
      let get k = Option.value ~default:0 (List.assoc_opt k pc) in
      if get "pass.if_convert.hyperblocks" < 1 then
        Alcotest.failf "no if-conversion counters: %s"
          (String.concat ", " (List.map fst pc));
      if get "pass.if_convert.instrs" <= 0 then
        Alcotest.fail "if_convert.instrs not positive";
      (* Both enables fanout reduction; the kernel has guarded interior
         instructions, so some guard must fall *)
      if get "pass.fanout.guards_removed" <= 0 then
        Alcotest.fail "fanout pass removed no guards";
      (* the && chain must convert under a sand-enabled config
         (Config.both leaves use_sand off; Config.sand turns it on) *)
      match Tk.compile_source source Dfp.Config.sand with
      | Error e -> Alcotest.failf "compile (sand): %s" e
      | Ok c ->
          let pcs = c.Dfp.Driver.pass_counters in
          let n =
            Option.value ~default:0
              (List.assoc_opt "pass.sand.chains_converted" pcs)
          in
          if n <= 0 then
            Alcotest.failf "sand pass converted no chains: %s"
              (String.concat ", "
                 (List.map
                    (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                    pcs))

(* sizing's attempts must not leak counts into the final artifact:
   counters reflect exactly the compile's last attempt *)
let pass_counters_bounded () =
  let source = G.kernel_source "pred_diamond" in
  match Tk.compile_source source Dfp.Config.both with
  | Error e -> Alcotest.failf "compile: %s" e
  | Ok c ->
      let hb =
        Option.value ~default:0
          (List.assoc_opt "pass.if_convert.hyperblocks"
             c.Dfp.Driver.pass_counters)
      in
      let blocks = c.Dfp.Driver.static_blocks in
      if hb <> blocks then
        Alcotest.failf "if-converted %d hyperblocks but emitted %d blocks" hb
          blocks

(* ---------- lib/obs unit behaviour ---------- *)

let metrics_unit () =
  let m = Mx.create () in
  Mx.incr m "a";
  Mx.incr ~by:4 m "a";
  Mx.observe m "h" 3;
  Mx.observe m "h" 3;
  Mx.observe m "h" 7;
  Alcotest.(check int) "counter" 5 (Mx.counter m "a");
  Alcotest.(check int) "absent" 0 (Mx.counter m "zzz");
  Alcotest.(check (list (pair int int))) "hist" [ (3, 2); (7, 1) ] (Mx.histogram m "h");
  Alcotest.(check int) "total" 3 (Mx.hist_total (Mx.histogram m "h"));
  Alcotest.(check int) "sum" 13 (Mx.hist_sum (Mx.histogram m "h"));
  let n = Mx.create () in
  Mx.incr ~by:2 n "a";
  Mx.observe n "h" 3;
  Mx.merge ~into:m n;
  Alcotest.(check int) "merged counter" 7 (Mx.counter m "a");
  Alcotest.(check int) "merged hist" 4 (Mx.hist_total (Mx.histogram m "h"))

let json_lint_unit () =
  (* the strict validator the trace checks rely on is the one codec's parser *)
  let ok s =
    match Edge_obs.Json.parse s with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "rejected %S: %s" s e
  in
  let bad s =
    match Edge_obs.Json.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  ok "[]";
  ok "{\"a\": [1, -2.5e3, true, null, \"x\\n\"]}";
  bad "[1,]";
  bad "{\"a\":}";
  bad "[1] trailing";
  bad "\"unterminated";
  bad "01"

let divergence_unit () =
  Alcotest.(check (option (triple int string string)))
    "equal" None
    (Edge_obs.Trace.first_divergence "a\nb\n" "a\nb\n");
  Alcotest.(check (option (triple int string string)))
    "line 2"
    (Some (2, "b", "c"))
    (Edge_obs.Trace.first_divergence "a\nb\n" "a\nc\n")

let tests =
  List.map golden_case (G.all ())
  @ List.map invariant_case (G.all ())
  @ List.map inorder_golden_case (G.inorder_all ())
  @ List.map inorder_invariant_case (G.inorder_all ())
  @ List.map corpus_invariant_case (Edge_fuzz.Corpus.load_dir "corpus")
  @ [
      Alcotest.test_case "pool determinism -j 1/2/4" `Quick pool_determinism;
      Alcotest.test_case "compiler pass counters" `Quick pass_counters;
      Alcotest.test_case "pass counters match artifact" `Quick
        pass_counters_bounded;
      Alcotest.test_case "metrics unit" `Quick metrics_unit;
      Alcotest.test_case "json lint unit" `Quick json_lint_unit;
      Alcotest.test_case "first divergence unit" `Quick divergence_unit;
    ]
