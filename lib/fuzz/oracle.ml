(* The differential oracle.

   A generated kernel is executed by the reference interpreter, then
   compiled under every configuration and executed by the functional
   dataflow executor and (optionally) the cycle-accurate simulator. All
   runs must agree on:

   - the return value,
   - the final memory image,
   - the number of committed architectural stores (predication may move
     stores between blocks or null them, but every correctly predicated
     store must commit exactly once on every path — Section 4.2),
   - whether the program faults.

   Independently, every compiled artifact is checked against the static
   ISA invariants in [Validate] — so a compiler bug that happens not to
   change observable behaviour (an unencodable block, a predicate path
   that starves an output) is still caught.

   The polynomial lattice checker ([Edge_check]) runs inside the
   compile (per-pass hooks in the driver) and is cross-validated
   against the enumerator here: if the enumerator flags a program the
   checker passed without skipping a block, that is a [Checker]
   failure — a breach of the superset-or-equal contract — and the
   exponential oracle has caught a soundness hole in the polynomial
   one. *)

module A = Edge_lang.Ast
module Conv = Edge_isa.Conventions

type outcome = {
  ret : int64;
  mem : Edge_isa.Mem.t;
  stores : int;  (** committed architectural stores *)
  fault : bool;
}

type kind = Validator | Mismatch | Exec_error | Checker

type fail = {
  config : string;  (** config name, or ["-"] before compilation *)
  kind : kind;
  message : string;
}

exception Skip
(** The reference interpreter ran out of fuel: the kernel (which the
    generator never produces, but shrinking can) does not terminate, so
    there is nothing to compare. *)

let kind_name = function
  | Validator -> "validator"
  | Mismatch -> "mismatch"
  | Exec_error -> "error"
  | Checker -> "checker"

let interp_fuel = 3_000_000

let is_fault e = String.length e >= 5 && String.sub e 0 5 = "fault"

let run_reference (ast : A.kernel) : (outcome, fail) result =
  let mem = Gen.default_mem () in
  match
    Edge_lang.Interp.run ~fuel:interp_fuel ast
      ~args:Edge_harness.Tracekit.default_args ~mem
  with
  | Error "fault: fuel exhausted" -> raise Skip
  | Ok o ->
      Ok
        {
          ret = Option.value ~default:0L o.Edge_lang.Interp.return_value;
          mem;
          stores = Edge_isa.Mem.store_count mem;
          fault = false;
        }
  | Error e when is_fault e ->
      Ok { ret = 0L; mem; stores = 0; fault = true }
  | Error e ->
      Error { config = "-"; kind = Exec_error; message = "interp: " ^ e }

(* every compile in the fuzz process has its ineffectuality plans
   re-proved by the exhaustive enumerator; a disproved plan raises
   [Breach] with a check[pass=opt_ineff ...] diagnostic, which
   [check_config] below classifies as a Checker breach *)
let () = Ineff_oracle.install ()

let compile ?check ast config =
  match Edge_lang.Lower.lower ast with
  | Error e -> Error ("lower: " ^ e)
  | Ok cfg -> (
      match Dfp.Driver.compile_cfg ?check cfg config with
      | Error e -> Error ("compile: " ^ e)
      | Ok c -> Ok c
      | exception Dfp.Opt_ineff.Breach msg -> Error msg)

let prep_regs = Edge_harness.Tracekit.default_regs

let run_functional (c : Dfp.Driver.compiled) : (outcome, string) result =
  let regs = prep_regs () in
  let mem = Gen.default_mem () in
  match Edge_sim.Functional.run c.Dfp.Driver.program ~regs ~mem with
  | Ok _ ->
      Ok
        {
          ret = regs.(Conv.result_reg);
          mem;
          stores = Edge_isa.Mem.store_count mem;
          fault = false;
        }
  | Error e when is_fault e -> Ok { ret = 0L; mem; stores = 0; fault = true }
  | Error e -> Error ("functional: " ^ e)

let run_cycle ?(machine = Edge_sim.Machine.default) (c : Dfp.Driver.compiled)
    : (outcome, string) result =
  let regs = prep_regs () in
  let mem = Gen.default_mem () in
  let placement n =
    match List.assoc_opt n c.Dfp.Driver.placements with
    | Some p -> p
    | None -> [||]
  in
  match
    Edge_sim.Backend.run ~machine ~placement c.Dfp.Driver.program ~regs ~mem
  with
  | Ok _ ->
      Ok
        {
          ret = regs.(Conv.result_reg);
          mem;
          stores = Edge_isa.Mem.store_count mem;
          fault = false;
        }
  | Error e when is_fault e -> Ok { ret = 0L; mem; stores = 0; fault = true }
  | Error e -> Error ("cycle: " ^ e)

(* every configuration the compiler supports, paper and auxiliary *)
let configs =
  ("Merge", Dfp.Config.merge)
  :: ("Mov4", { Dfp.Config.both with Dfp.Config.use_mov4 = true })
  :: ("Sand", Dfp.Config.sand)
  :: Dfp.Config.all_paper_configs

let config_names = List.map fst configs

(* The timing-backend axis of the oracle. The default covers the tiled
   grid alone (the historical behaviour, and what the per-commit smoke
   budgets for); matrix campaigns add the in-order core, making every
   kernel × config pair prove that both timing backends reproduce the
   reference results. *)
let default_machines = [ ("grid", Edge_sim.Machine.default) ]

let matrix_machines =
  [
    ("grid", Edge_sim.Machine.default);
    ("inorder", Edge_sim.Machine.inorder_edge);
  ]

let agree (a : outcome) (b : outcome) =
  a.fault = b.fault
  && (a.fault
     || Int64.equal a.ret b.ret
        && Edge_isa.Mem.equal a.mem b.mem
        && a.stores = b.stores)

let describe_disagreement ~name ~executor (r : outcome) (reference : outcome) =
  Printf.sprintf
    "%s %s: ret %Ld vs %Ld, stores %d vs %d, mem %s (fault %b vs %b)" name
    executor r.ret reference.ret r.stores reference.stores
    (if r.fault || reference.fault || Edge_isa.Mem.equal r.mem reference.mem
     then "equal"
     else "differs")
    r.fault reference.fault

(* Check a single compiled artifact + behaviour under one configuration
   against the reference outcome.  [Ok n]: clean; [n] blocks were too
   wide for the enumerator and got only structural+lattice checks. *)
let check_config ?(cycle = true) ?(machines = default_machines)
    ?(validate = true) ?(check = true) ?max_vars ~reference ast (name, config)
    : (int, fail) result =
  match compile ~check ast config with
  | Error e when Edge_check.Diag.parse_key e <> None ->
      (* the per-pass checker rejected the compile; record what the
         enumerator thinks of the finished program for cross-checking *)
      let enum_view =
        match compile ~check:false ast config with
        | Error e2 -> Printf.sprintf " (recompile without check failed: %s)" e2
        | Ok compiled -> (
            match Validate.program ?max_vars compiled.Dfp.Driver.program with
            | Ok skipped ->
                Printf.sprintf
                  " (enumerator finds the final program clean, %d blocks \
                   skipped)"
                  skipped
            | Error es ->
                Printf.sprintf " (enumerator agrees on the final program: %s)"
                  (String.concat "; " es))
      in
      Error { config = name; kind = Checker; message = e ^ enum_view }
  | Error e -> Error { config = name; kind = Exec_error; message = e }
  | Ok compiled -> (
      let validator_verdict =
        if validate then
          match Validate.program ?max_vars compiled.Dfp.Driver.program with
          | Ok skipped -> Ok skipped
          | Error es -> (
              let message = String.concat "; " es in
              if not check then
                Error { config = name; kind = Validator; message }
              else
                (* the compile passed the lattice checker: either the
                   checker skipped the offending block (excused) or the
                   superset-or-equal contract is breached *)
                let r = Edge_check.Check.program compiled.Dfp.Driver.program in
                match r.Edge_check.Check.skipped with
                | 0 ->
                    Error
                      {
                        config = name;
                        kind = Checker;
                        message =
                          "cross-validation breach: enumerator flags a \
                           program the lattice checker passed: " ^ message;
                      }
                | _ -> Error { config = name; kind = Validator; message })
        else Ok 0
      in
      match validator_verdict with
      | Error _ as e -> e
      | Ok skipped -> (
          match run_functional compiled with
          | Error e -> Error { config = name; kind = Exec_error; message = e }
          | Ok r when not (agree reference r) ->
              Error
                {
                  config = name;
                  kind = Mismatch;
                  message =
                    describe_disagreement ~name ~executor:"functional" r
                      reference;
                }
          | Ok _ ->
              if not cycle then Ok skipped
              else
                (* every machine on the axis must reproduce the
                   reference results — this is the backend-differential
                   gate for the in-order core *)
                let rec machine_loop = function
                  | [] -> Ok skipped
                  | (mname, machine) :: rest -> (
                      match run_cycle ~machine compiled with
                      | Error e ->
                          Error
                            {
                              config = name;
                              kind = Exec_error;
                              message = Printf.sprintf "[%s] %s" mname e;
                            }
                      | Ok r when not (agree reference r) ->
                          Error
                            {
                              config = name;
                              kind = Mismatch;
                              message =
                                describe_disagreement ~name
                                  ~executor:("cycle[" ^ mname ^ "]")
                                  r reference;
                            }
                      | Ok _ -> machine_loop rest)
                in
                machine_loop machines))

(* [Ok n]: all configs clean; [n] sums the enumerator-skipped block
   counts across configurations, so the fuzz report can say how much of
   the corpus actually got the exponential treatment. *)
let check_uncached ?cycle ?machines ?validate ?check ?max_vars
    (ast : A.kernel) : (int, fail) result =
  match run_reference ast with
  | Error _ as e -> e
  | Ok reference ->
      let rec go acc = function
        | [] -> Ok acc
        | c :: rest -> (
            match
              check_config ?cycle ?machines ?validate ?check ?max_vars
                ~reference ast c
            with
            | Error _ as e -> e
            | Ok skipped -> go (acc + skipped) rest)
      in
      go 0 configs

(* persistent-cache key: the kernel's content plus everything that can
   change a verdict — oracle switches, the config list, and the
   simulator revision *)
let check_cache_key ?cycle ?(machines = default_machines) ?validate ?check
    ?max_vars ast =
  String.concat "|"
    [
      "fuzz-oracle-v4";
      (* one entry per machine on the axis: its backend's revision plus
         the full description, so axis changes re-verify *)
      String.concat ","
        (List.map
           (fun (mn, m) ->
             Printf.sprintf "%s=%s:%s" mn
               (Edge_sim.Backend.revision m)
               (Digest.to_hex (Digest.string (Marshal.to_string m []))))
           machines);
      Digest.to_hex (Digest.string (Marshal.to_string (ast : A.kernel) []));
      string_of_bool (Option.value cycle ~default:true);
      string_of_bool (Option.value validate ~default:true);
      string_of_bool (Option.value check ~default:true);
      (match max_vars with None -> "-" | Some v -> string_of_int v);
      String.concat "," config_names;
    ]

let check ?cycle ?machines ?validate ?check ?max_vars ?cache (ast : A.kernel)
    : (int, fail) result =
  match cache with
  | None -> check_uncached ?cycle ?machines ?validate ?check ?max_vars ast
  | Some c -> (
      let key =
        check_cache_key ?cycle ?machines ?validate ?check ?max_vars ast
      in
      match Edge_parallel.Disk_cache.find c ~key with
      | Some skipped -> Ok skipped
      | None -> (
          match
            check_uncached ?cycle ?machines ?validate ?check ?max_vars ast
          with
          | Ok skipped ->
              (* only clean verdicts are cached: a failure must re-run
                 so diagnosis always sees a fresh, complete reproduction *)
              Edge_parallel.Disk_cache.store c ~key skipped;
              Ok skipped
          | Error _ as e -> e))

(* String-error wrapper matching the historical Diff_check interface. *)
let check_kernel ?cycle (ast : A.kernel) : (unit, string) result =
  match (try `R (check ?cycle ast) with Skip -> `Skip) with
  | `Skip -> Ok ()
  | `R (Ok _) -> Ok ()
  | `R (Error f) ->
      Error (Printf.sprintf "%s [%s] %s" f.config (kind_name f.kind) f.message)

(* Trace a kernel's cycle-simulator run under one configuration (by
   name) and render the deterministic text form. bin/fuzz dumps this
   next to a minimized reproducer's corpus entry, so a failure's
   schedule is diagnosable without re-running the fuzzer; the trace is
   collected even when the run faults (the header records the outcome,
   the events stop at the fault). *)
let trace_kernel ?(config = "Both") (ast : A.kernel) : (string, string) result
    =
  match List.find_opt (fun (n, _) -> String.equal n config) configs with
  | None -> Error (Printf.sprintf "unknown config %s" config)
  | Some (name, cfg) -> (
      (* tracing wants the artifact even when the checker would reject
         it — the caller is diagnosing exactly such a failure *)
      match compile ~check:false ast cfg with
      | Error e -> Error e
      | Ok c ->
          let obs, events, _ = Edge_obs.Obs.collector () in
          let regs = prep_regs () in
          let mem = Gen.default_mem () in
          let placement n =
            match List.assoc_opt n c.Dfp.Driver.placements with
            | Some p -> p
            | None -> [||]
          in
          let outcome =
            Edge_sim.Cycle_sim.run ~placement ~obs c.Dfp.Driver.program ~regs
              ~mem
          in
          let header =
            [
              ("config", name);
              ( "outcome",
                match outcome with
                | Ok s -> "cycles " ^ string_of_int s.Edge_sim.Stats.cycles
                | Error e -> e );
            ]
          in
          Ok (Edge_obs.Trace.render_text ~header (events ())))

(* Does [ast] still fail under [config] (by name)? The shrinker's keep
   predicate: minimization must preserve the original failure's config
   and kind, not just "some failure".  For checker failures,
   [check_key] additionally pins the diagnostic's (pass, invariant)
   pair, so shrinking cannot wander from e.g. an opt_merge pred-or
   violation to an unrelated codegen structure error. *)
let still_fails ?cycle ?machines ?validate ?check ?check_key ?max_vars ~config
    ~kind (ast : A.kernel) : bool =
  match
    (try
       `R
         (match List.find_opt (fun (n, _) -> String.equal n config) configs with
         | None ->
             check_uncached ?cycle ?machines ?validate ?check ?max_vars ast
         | Some c -> (
             match run_reference ast with
             | Error _ as e -> e
             | Ok reference ->
                 check_config ?cycle ?machines ?validate ?check ?max_vars
                   ~reference ast c))
     with Skip -> `Skip)
  with
  | `Skip -> false
  | `R (Ok _) -> false
  | `R (Error f) -> (
      f.kind = kind
      &&
      match check_key with
      | None -> true
      | Some key -> (
          match Edge_check.Diag.parse_key f.message with
          | Some key' -> key' = key
          | None -> false))
