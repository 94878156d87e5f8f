(* The ineffectuality enumerator's answers, pinned.  One line per
   distinct (hyperblock, plan) that [Opt_ineff.cross_validate] receives
   while the example, corpus and generated kernels of
   [Compiled_pins.kernel_inputs] compile under the oracle
   configurations that run opt_ineff:

     name md5(answers)

   The name is the first compile's kernel, configuration and block,
   with [#k] added when a block of that name was already recorded with
   other content.  The answers are [Ineff_oracle.check_plan]'s, [Ok] or
   the exact error string, for the block's real plan, then a one-site
   dead plan for every body position, then a one-guard drop plan for
   every guarded position; each plan under the default [max_vars] and
   then under [max_vars:3].  The last line counts the answers of each
   breach kind over the whole file; the "enumerator pinned" test also
   asserts that each kind occurs.  A change to any verdict, message or
   rendered assignment shows up here.

   [make regen-golden] writes test/golden/enum.digests. *)

module Hb = Edge_ir.Hblock
module Ineff = Edge_fuzz.Ineff_oracle
module Opt_ineff = Dfp.Opt_ineff

let file_name = "enum.digests"

(* the breach kinds, as the text each message carries *)
let kinds =
  [
    ("contributes", "contributes on");
    ("faults", "can fault and still fires on");
    ("fire-region", "fire region changes on");
  ]

(* every distinct (hyperblock, plan) the hook receives, in first-seen
   order; the compiles run unchecked and the hook passes every plan, so
   each compiles as it would with no hook *)
let recorded () =
  let seen = Hashtbl.create 1024 and names = Hashtbl.create 1024 in
  let out = ref [] and compile_name = ref "" in
  let record (h : Hb.t) (p : Opt_ineff.plan) =
    let key = Marshal.to_string (h, p) [ Marshal.No_sharing ] in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      let base = !compile_name ^ "/" ^ h.Hb.hname in
      let n = Option.value ~default:0 (Hashtbl.find_opt names base) in
      Hashtbl.replace names base (n + 1);
      let name = if n = 0 then base else Printf.sprintf "%s#%d" base n in
      (* the pass rewrites [h] after the hook returns: keep a copy *)
      let h, p = (Marshal.from_string key 0 : Hb.t * Opt_ineff.plan) in
      out := (name, h, p) :: !out
    end;
    Ok ()
  in
  let hook = !Opt_ineff.cross_validate in
  Opt_ineff.cross_validate := Some record;
  Fun.protect
    ~finally:(fun () -> Opt_ineff.cross_validate := hook)
    (fun () ->
      List.iter
        (fun (name, config_name, (config : Dfp.Config.t), lower) ->
          if config.Dfp.Config.opt_ineff then begin
            compile_name := name ^ "/" ^ config_name;
            ignore
              (Result.bind (lower ()) (fun cfg ->
                   Dfp.Driver.compile_cfg ~check:false cfg config))
          end)
        (Compiled_pins.kernel_inputs ()));
  List.rev !out

(* the real plan, one-site dead plans, one-guard drop plans *)
let plans (h : Hb.t) (p : Opt_ineff.plan) =
  let positions = List.mapi (fun i hi -> (i, hi)) h.Hb.body in
  let dead i = { Opt_ineff.pdead = [ i ]; pdrops = [] } in
  let drop i = { Opt_ineff.pdead = []; pdrops = [ i ] } in
  (p :: List.map (fun (i, _) -> dead i) positions)
  @ List.filter_map
      (fun (i, (hi : Hb.hinstr)) ->
        if hi.Hb.guard = None then None else Some (drop i))
      positions

let answers h p =
  List.concat_map
    (fun plan ->
      List.map
        (fun max_vars ->
          match Ineff.check_plan ~max_vars h plan with
          | Ok () -> "Ok"
          | Error e -> e)
        [ Ineff.default_max_vars; 3 ])
    (plans h p)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* the pinned lines of the current enumerator, and the breach count of
   each kind; no program is named while the enumerator runs, and
   [check_plan] is called directly, so no verdict is reused *)
let lines_and_counts () =
  let blocks = recorded () in
  Edge_check.Scope.leave ();
  let counts = List.map (fun (k, _) -> (k, ref 0)) kinds in
  let lines =
    List.map
      (fun (name, h, p) ->
        let a = answers h p in
        List.iter
          (fun answer ->
            List.iter
              (fun (k, sub) ->
                if contains ~sub answer then incr (List.assoc k counts))
              kinds)
          a;
        name ^ " " ^ Compiled_pins.md5 (String.concat "\n" a))
      blocks
  in
  let counts = List.map (fun (k, n) -> (k, !n)) counts in
  let summary =
    "breaches "
    ^ String.concat " "
        (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) counts)
  in
  (lines @ [ summary ], counts)

let lines () = fst (lines_and_counts ())
let path () = Filename.concat (Goldens.golden_dir ()) file_name
