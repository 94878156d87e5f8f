(* bench_compare: diff two BENCH_*.json files.

     bench_compare.exe BASE.json NEW.json

   For figure-7 files, the gates are:
     - any per-benchmark cycle drift in the BB or Hyper baselines (or a
       benchmark/config/backend present in BASE missing from NEW) fails
       — the baselines run no optimization in flux, so they must be
       byte-identical;
     - the Both geomean speedup on the top-level (trips_grid) table
       regressing fails — new optimizations have to pay their way.
   Optimized-config per-bench drift is reported as informational
   "delta" lines, and per-config geomean deltas are printed for the
   top-level table and every per-backend section.  The wall-clock
   (wall_s.total, wall_s.compile, wall_s.sim) and allocation
   (alloc.minor_words, alloc.major_words) deltas are reported but never
   fail the comparison: they are host-dependent.

   Files whose "experiment" field is "serve" (written by
   serve_bench.exe) hold machine-dependent throughput/latency numbers
   plus two byte-identical flags; latency and ratio drift is reported
   non-fatally, but either identical flag flipping false or warm
   throughput regressing more than 20% for a matching -j fails the
   comparison.

   BENCH files are read with the repository's one JSON codec,
   lib/obs/json.ml. *)

open Edge_obs.Json

(* -- BENCH-file accessors ------------------------------------------ *)

let load path =
  let ic =
    try open_in_bin path
    with Sys_error e ->
      Printf.eprintf "bench_compare: %s\n" e;
      exit 2
  in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match parse src with
  | Ok v -> v
  | Error e ->
      Printf.eprintf "bench_compare: %s: %s\n" path e;
      exit 2

(* bench name -> (config -> cycles) *)
let cycles_of (v : t) : (string * (string * int) list) list =
  match member "benches" v with
  | Some (Arr rows) ->
      List.filter_map
        (fun row ->
          match (member "bench" row, member "cycles" row) with
          | Some (Str name), Some (Obj cs) ->
              Some
                ( name,
                  List.filter_map
                    (fun (cfg, c) ->
                      match c with
                      | Num f -> Some (cfg, int_of_float f)
                      | _ -> None)
                    cs )
          | _ -> None)
        rows
  | _ -> []

(* backend name -> (bench -> (config -> cycles)); [] when a file
   predates the per-backend sections *)
let backends_of (v : t) : (string * (string * (string * int) list) list) list
    =
  match member "backends" v with
  | Some (Obj sections) ->
      List.map (fun (name, section) -> (name, cycles_of section)) sections
  | _ -> []

(* the host-dependent figures of a fig7 file, reported but never gated:
   (section, field, format) *)
let host_figures =
  [
    ("wall_s", "total", Printf.sprintf "%.3fs");
    ("wall_s", "compile", Printf.sprintf "%.3fs");
    ("wall_s", "sim", Printf.sprintf "%.3fs");
    ("alloc", "minor_words", Printf.sprintf "%.0f");
    ("alloc", "major_words", Printf.sprintf "%.0f");
  ]

(* per -j row of a BENCH_serve.json: (j, warm_jobs_s, ratio, p99_ms) *)
let serve_rows v =
  match member "rows" v with
  | Some (Arr rows) ->
      List.filter_map
        (fun row ->
          match
            ( num_member "j" row,
              num_member "warm_jobs_s" row,
              num_member "warm_cold_ratio" row,
              num_member "warm_p99_ms" row )
          with
          | Some j, Some w, Some r, Some p ->
              Some (int_of_float j, (w, r, p))
          | _ -> None)
        rows
  | _ -> []

let is_serve v = member "experiment" v = Some (Str "serve")

(* serve latency/ratio numbers are host-dependent and reported
   non-fatally, but two regressions gate: warm throughput falling by
   more than [warm_tolerance] for a matching -j (the warm path is
   in-memory and deterministic enough that a >20% drop is a code
   regression, not host noise), and either byte-identical flag
   flipping false *)
let warm_tolerance = 0.20

let compare_serve base next new_path =
  let failures = ref 0 in
  List.iter
    (fun (j, (wb, rb, pb)) ->
      match List.assoc_opt j (serve_rows next) with
      | None ->
          incr failures;
          Printf.printf "FAIL: serve -j%d missing from %s\n" j new_path
      | Some (wn, rn, pn) ->
          Printf.printf
            "serve -j%d: warm %.0f -> %.0f jobs/s (%+.1f%%), ratio %.0fx -> \
             %.0fx, p99 %.3f -> %.3f ms\n"
            j wb wn
            (if wb > 0. then (wn -. wb) /. wb *. 100. else 0.)
            rb rn pb pn;
          if wn < wb *. (1. -. warm_tolerance) then begin
            incr failures;
            Printf.printf
              "FAIL: serve -j%d warm throughput regressed %.1f%% (tolerance \
               %.0f%%)\n"
              j
              ((wb -. wn) /. wb *. 100.)
              (warm_tolerance *. 100.)
          end)
    (serve_rows base);
  let identical v = member "identical" v = Some (Bool true) in
  if identical base && not (identical next) then begin
    incr failures;
    Printf.printf
      "FAIL: server responses no longer byte-identical to direct runs\n"
  end;
  let pre_identical v =
    match member "preencoded" v with
    | Some pre -> member "identical" pre = Some (Bool true)
    | None -> false
  in
  if pre_identical base && not (pre_identical next) then begin
    incr failures;
    Printf.printf
      "FAIL: pre-encoded image jobs no longer byte-identical to source jobs\n"
  end;
  if !failures > 0 then exit 1;
  Printf.printf
    "OK: serve identical flags hold, warm throughput within %.0f%% \
     (latency/ratio informational)\n"
    (warm_tolerance *. 100.)

let () =
  let base_path, new_path =
    match Sys.argv with
    | [| _; b; n |] -> (b, n)
    | _ ->
        Printf.eprintf "usage: bench_compare.exe BASE.json NEW.json\n";
        exit 2
  in
  let base = load base_path and next = load new_path in
  if is_serve base || is_serve next then begin
    if not (is_serve base && is_serve next) then begin
      Printf.eprintf "bench_compare: %s and %s are different experiments\n"
        base_path new_path;
      exit 2
    end;
    compare_serve base next new_path;
    exit 0
  end;
  let base_cycles = cycles_of base and new_cycles = cycles_of next in
  if base_cycles = [] then begin
    Printf.eprintf "bench_compare: %s: no benches\n" base_path;
    exit 2
  end;
  let drifts = ref 0 in
  let compared = ref 0 in
  let deltas = ref 0 in
  (* BB and Hyper run no cycle-affecting optimization that is still in
     flux, so any per-bench drift there is a correctness bug and fails;
     the optimized configs are where new optimizations legitimately
     move cycle counts, so their per-bench drift is informational and
     the gate moves to the geomean (below) *)
  let gated_config = function "BB" | "Hyper" -> true | _ -> false in
  let diff_tables ~label base_cycles new_cycles =
    List.iter
      (fun (bench, configs) ->
        match List.assoc_opt bench new_cycles with
        | None ->
            incr drifts;
            Printf.printf "DRIFT %s%-12s missing from %s\n" label bench
              new_path
        | Some new_configs ->
            List.iter
              (fun (cfg, c) ->
                match List.assoc_opt cfg new_configs with
                | None ->
                    incr drifts;
                    Printf.printf "DRIFT %s%-12s %-6s missing from %s\n" label
                      bench cfg new_path
                | Some c' ->
                    incr compared;
                    if c <> c' then
                      if gated_config cfg then begin
                        incr drifts;
                        Printf.printf "DRIFT %s%-12s %-6s %d -> %d (%+d)\n"
                          label bench cfg c c' (c' - c)
                      end
                      else begin
                        incr deltas;
                        Printf.printf "delta %s%-12s %-6s %d -> %d (%+d)\n"
                          label bench cfg c c' (c' - c)
                      end)
              configs)
      base_cycles
  in
  (* per-config geomean of the figure-7 speedup (cycles(Hyper) /
     cycles(config)) over the benches both files share *)
  let geomeans base_table new_table =
    let config_names =
      List.sort_uniq compare
        (List.concat_map (fun (_, cs) -> List.map fst cs) base_table)
    in
    List.filter_map
      (fun cfg ->
        let ratios which_table other_table =
          List.filter_map
            (fun (bench, cs) ->
              match
                ( List.assoc_opt "Hyper" cs,
                  List.assoc_opt cfg cs,
                  List.assoc_opt bench other_table )
              with
              | Some h, Some c, Some _ when h > 0 && c > 0 ->
                  Some (log (float_of_int h /. float_of_int c))
              | _ -> None)
            which_table
        in
        let gm logs =
          if logs = [] then None
          else
            Some
              (exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs)))
        in
        match (gm (ratios base_table new_table), gm (ratios new_table base_table)) with
        | Some b, Some n -> Some (cfg, b, n)
        | _ -> None)
      config_names
  in
  let report_geomeans ~label ~gate base_table new_table =
    List.iter
      (fun (cfg, b, n) ->
        Printf.printf "geomean %s%-6s %.4f -> %.4f (%+.4f)\n" label cfg b n
          (n -. b);
        (* the prize gate: the Both geomean on the gating table must
           never regress — new optimizations have to pay their way *)
        if gate && cfg = "Both" && n < b -. 1e-9 then begin
          incr drifts;
          Printf.printf "FAIL: %sBoth geomean regressed %.4f -> %.4f\n" label
            b n
        end)
      (geomeans base_table new_table)
  in
  diff_tables ~label:"" base_cycles new_cycles;
  report_geomeans ~label:"" ~gate:true base_cycles new_cycles;
  (* per-backend sections are diffed independently: a backend present
     in both files gates exactly like the top-level table (except its
     geomeans, which are informational); a backend only the NEW file
     has is informational (it was just added) *)
  let base_backends = backends_of base and new_backends = backends_of next in
  List.iter
    (fun (backend, base_table) ->
      match List.assoc_opt backend new_backends with
      | None ->
          incr drifts;
          Printf.printf "DRIFT backend %s missing from %s\n" backend new_path
      | Some new_table ->
          diff_tables ~label:(backend ^ " ") base_table new_table;
          report_geomeans ~label:(backend ^ " ") ~gate:false base_table
            new_table)
    base_backends;
  List.iter
    (fun (backend, table) ->
      if not (List.mem_assoc backend base_backends) then
        Printf.printf
          "NEW backend %s: %d benches (informational, absent from %s)\n"
          backend (List.length table) base_path)
    new_backends;
  List.iter
    (fun (section, field, fmt) ->
      let get v = Option.bind (member section v) (num_member field) in
      match (get base, get next) with
      | Some b, Some n ->
          Printf.printf "%s.%s: %s -> %s (%+.1f%%)\n" section field (fmt b)
            (fmt n)
            (if b > 0. then (n -. b) /. b *. 100. else 0.)
      | _ -> ())
    host_figures;
  if !drifts > 0 then begin
    Printf.printf "FAIL: %d cycle drift(s) over %d comparisons\n" !drifts
      !compared;
    exit 1
  end
  else
    Printf.printf
      "OK: %d cycle counts compared (%d optimized-config delta(s), \
       informational), baselines identical, Both geomean held\n"
      !compared !deltas
