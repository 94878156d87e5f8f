(* Fuzzing campaigns: deterministic fan-out of (seed, size) tasks over
   the domain pool.

   Each task is pure — it derives everything from its seed — and
   [Edge_parallel.Pool.run] is order-preserving, so a campaign's report
   is a function of (seed, n, sizes, machines) alone: the same
   report for any [-j], which is what makes "fuzz found seed S" a
   reproducible statement rather than a race observation. *)

module A = Edge_lang.Ast

type failure = {
  seed : int;
  size : int;
  config : string;
  kind : Oracle.kind;
  message : string;
  source : string;  (** pretty-printed kernel source of the reproducer *)
}

type report = {
  tested : int;  (** programs whose oracle verdict counted *)
  skipped : int;  (** reference interpreter ran out of fuel *)
  enum_skipped : int;
      (** compiled blocks the enumerator skipped (more than
          [Validate.default_max_vars] predicate variables); those blocks
          still got the structural and lattice checks, just not
          exhaustive path enumeration *)
  failures : failure list;  (** in seed order *)
}

let default_min_size = 6
let default_max_size = 45

let check_one ?machines ~seed ~size () : (int, failure) result option =
  let ast = Gen.generate ~seed ~size in
  match Oracle.check ?machines ast with
  | exception Oracle.Skip -> None
  | Ok enum_skipped -> Some (Ok enum_skipped)
  | Error f ->
      Some
        (Error
           {
             seed;
             size;
             config = f.Oracle.config;
             kind = f.Oracle.kind;
             message = f.Oracle.message;
             source = Pretty.kernel_to_string ast;
           })

let run ?jobs ?machines ?(min_size = default_min_size)
    ?(max_size = default_max_size) ~seed ~n () : report =
  let tasks = List.init n (fun i -> i) in
  let results =
    Edge_parallel.Pool.run ?jobs
      (fun i ->
        let size = Gen.size_for ~min_size ~max_size i in
        check_one ?machines ~seed:(seed + i) ~size ())
      tasks
  in
  List.fold_left
    (fun acc r ->
      match r with
      | None -> { acc with skipped = acc.skipped + 1 }
      | Some (Ok enum_skipped) ->
          {
            acc with
            tested = acc.tested + 1;
            enum_skipped = acc.enum_skipped + enum_skipped;
          }
      | Some (Error f) ->
          { acc with tested = acc.tested + 1; failures = f :: acc.failures })
    { tested = 0; skipped = 0; enum_skipped = 0; failures = [] }
    results
  |> fun r -> { r with failures = List.rev r.failures }

let pp_failure ppf (f : failure) =
  Format.fprintf ppf "FAIL seed=%d size=%d %s [%s] %s" f.seed f.size f.config
    (Oracle.kind_name f.kind) f.message

let pp_report ppf (r : report) =
  List.iter (fun f -> Format.fprintf ppf "%a@." pp_failure f) r.failures;
  Format.fprintf ppf
    "%d tested, %d skipped, %d failures (%d blocks beyond enumerator width)@."
    r.tested r.skipped
    (List.length r.failures)
    r.enum_skipped

(* ---------- minimization ---------- *)

(* Shrink a campaign failure to a minimal reproducer preserving its
   (config, kind) — and, for checker failures, the diagnostic's
   (pass, invariant) key, so the minimized kernel still trips the same
   invariant in the same pass as the original. *)
let minimize_failure ?machines (f : failure) : A.kernel =
  let ast = Gen.generate ~seed:f.seed ~size:f.size in
  let check_key =
    match f.kind with
    | Oracle.Checker -> Edge_check.Diag.parse_key f.message
    | _ -> None
  in
  Shrink.minimize
    ~keep:
      (Oracle.still_fails ?machines ?check_key ~config:f.config ~kind:f.kind)
    ast

(* ---------- corpus replay ---------- *)

let replay_source ?machines ~name src : (unit, string) result =
  match Edge_lang.Parser.parse src with
  | Error e -> Error (Printf.sprintf "%s: parse: %s" name e)
  | Ok ast -> (
      match
        try `R (Oracle.check ?machines ast) with Oracle.Skip -> `Skip
      with
      | `Skip -> Ok ()
      | `R (Ok _) -> Ok ()
      | `R (Error f) ->
          Error
            (Printf.sprintf "%s: %s [%s] %s" name f.Oracle.config
               (Oracle.kind_name f.Oracle.kind)
               f.Oracle.message))

(* ---------- whole-workload artifact validation ---------- *)

(* Compile every registry workload under every configuration and run the
   static validator over each artifact — the "validator passes on all
   compiled artifacts of the Figure 7 sweep" acceptance gate, extended
   to the auxiliary configs.  One task is one workload's configs, so
   they share its compile prefix and verdicts in one domain.  Returns the number of blocks whose path
   enumeration was declined (too many variables) and the failures. *)
let validate_workloads ?jobs ?(workloads = Edge_workloads.Registry.all) () :
    int * (string * string) list =
  let per_workload =
    Edge_parallel.Pool.run ?jobs
      (fun (w : Edge_workloads.Workload.t) ->
        List.map
          (fun (cname, config) ->
            let label =
              Printf.sprintf "%s/%s" w.Edge_workloads.Workload.name cname
            in
            match Edge_harness.Experiment.compile w config with
            | Error e -> (0, [ (label, "compile: " ^ e) ])
            | Ok compiled -> (
                match Validate.program compiled.Dfp.Driver.program with
                | Ok skipped -> (skipped, [])
                | Error es -> (0, List.map (fun e -> (label, e)) es)))
          Oracle.configs)
      workloads
    |> List.concat
  in
  ( List.fold_left (fun acc (s, _) -> acc + s) 0 per_workload,
    List.concat_map snd per_workload )

(* ---------- checker smoke ---------- *)

(* The smoke kernels: the named sources plus [n] generated kernels.
   One task is one kernel's configs, in [Oracle.configs] order, so they
   share its compile prefix and verdicts in one domain.  [f] gets each
   config's label and fresh lowering; [error] gives a parse or lowering
   failure the same shape. *)
let smoke ?jobs ?(n = 50) ?(seed = 2006) ~sources ~error f =
  let generated =
    List.init n (fun i ->
        let size =
          Gen.size_for ~min_size:default_min_size ~max_size:default_max_size i
        in
        let s = seed + i in
        ( Printf.sprintf "gen-seed-%d" s,
          Pretty.kernel_to_string (Gen.generate ~seed:s ~size) ))
  in
  Edge_parallel.Pool.run ?jobs
    (fun (name, src) ->
      List.map
        (fun (cname, config) ->
          let label = Printf.sprintf "%s/%s" name cname in
          match Edge_lang.Parser.parse src with
          | Error e -> error (label, "parse: " ^ e)
          | Ok ast -> (
              match Edge_lang.Lower.lower ast with
              | Error e -> error (label, "lower: " ^ e)
              | Ok cfg -> f label cfg config))
        Oracle.configs)
    (sources @ generated)
  |> List.concat

(* Run the per-pass lattice checker (no execution, no enumeration) over
   the smoke kernels under every configuration. Returns one entry per
   diagnostic-bearing compile; a clean sweep is the `make check-smoke`
   gate. *)
let check_smoke ?jobs ?n ?seed ~sources () : (string * string) list =
  smoke ?jobs ?n ?seed ~sources
    ~error:(fun e -> [ e ])
    (fun label cfg config ->
      match Dfp.Driver.compile_cfg ~check:true cfg config with
      | Ok _ -> []
      | Error e -> [ (label, e) ])
  |> List.concat

(* ---------- ineffectuality-lint smoke ---------- *)

(* Compile the same kernel set in lint mode: every ineffectuality
   finding is reported (not applied), and — since the enumerator
   cross-validation hook is installed process-wide — every reported
   plan has already been re-proved by exhaustive path enumeration.  A
   disproved verdict (a false positive) raises [Opt_ineff.Breach],
   which we surface as a failure; the return is the per-compile
   failure list plus the total finding count, so the `make
   analyze-smoke` gate can assert both "zero false positives" and
   "the analysis actually finds things". *)
let analyze_smoke ?jobs ?n ?seed ~sources () : (string * string) list * int =
  let results =
    smoke ?jobs ?n ?seed ~sources
      ~error:(fun e -> ([ e ], 0))
      (fun label cfg config ->
        let found = ref 0 in
        let lint _f = incr found in
        match Dfp.Driver.compile_cfg ~check:true ~lint cfg config with
        | Ok _ -> ([], !found)
        | Error e -> ([ (label, e) ], !found)
        | exception Dfp.Opt_ineff.Breach msg ->
            ([ (label, "false positive: " ^ msg) ], !found))
  in
  ( List.concat_map fst results,
    List.fold_left (fun acc (_, c) -> acc + c) 0 results )
