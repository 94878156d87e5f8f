(* The program this domain is working on, and what has been computed
   for it.

   [Dfp.Driver.compile_cfg] names the program of every compile; a new
   name drops everything stored under the old one.  Four kinds of
   entries live here, each under a string key:

   - the driver's config-independent compile prefixes;
   - the driver's pipeline stages: the hyperblocks after if-conversion
     and after each predicate pass of a config's step list, keyed on
     the prefix, the attempt and the steps so far, which a later
     config whose steps start the same way resumes from;
   - the passing verdicts of pure per-block judges: the hyperblock and
     block checkers (through [Check.hblocks] and [Check.block]), the
     driver's psi round trip, the fuzz validator's [Validate.block],
     and the ineffectuality enumerator the fuzz oracle installs as
     [Opt_ineff.cross_validate];
   - the structural facts of each block the two encoded-block judges
     saw ([Block_check.facts]), which both of them read.

   A verdict's key is a printable tag naming the judge and its
   parameters, followed by [Marshal.to_string v [No_sharing]] of the
   content judged.  Every marshalled value starts with the byte 0x84,
   which no tag contains, so keys of different tags never collide, and
   keys are compared whole: a hit is a judgment of identical content.
   Only passing verdicts are stored (the judge's [Ok skipped]); a
   failure is always recomputed, so its diagnostic keeps its own pass
   name and witness.

   With no current program ([leave], or a domain that has not compiled
   yet) nothing is read or stored.  A profiled compile leaves the
   scope, so it runs and times every stage and every check.

   The state is domain-local.  Systhreads of one domain share it, and
   no two of them judge at once: dfpd's reader threads never compile or
   validate, only its worker domains do.  Memory: a domain holds the
   entries of one program, each verdict or facts key a copy of a block
   judged since the program was named, each facts entry a few arrays
   and a table the size of its block, each stage a list of block records
   whose contents it shares with the other stages.  A domain that
   validates a program it did not just compile adds to the scope of its
   last compile, one key per distinct block judged, until its next
   compile; those keys are bounded by the artifacts it was handed. *)

type entry = ..

(* the current program's name and entries *)
let state : (string * (string, entry) Hashtbl.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let enter name =
  match Domain.DLS.get state with
  | Some (current, _) when String.equal current name -> ()
  | _ -> Domain.DLS.set state (Some (name, Hashtbl.create 64))

let leave () = Domain.DLS.set state None

let find key =
  Option.bind (Domain.DLS.get state) (fun (_, table) ->
      Hashtbl.find_opt table key)

let add key entry =
  Option.iter
    (fun (_, table) -> Hashtbl.replace table key entry)
    (Domain.DLS.get state)

type entry += Passed of bool

(* [judge ()], whose [Ok skipped] is a passing verdict; a passing
   verdict already stored for [tag] and identical [v] in the current
   program is returned instead *)
let verdict ~tag v judge =
  match Domain.DLS.get state with
  | None -> judge ()
  | Some (_, table) -> (
      let key = tag ^ Marshal.to_string v [ Marshal.No_sharing ] in
      match Hashtbl.find_opt table key with
      | Some (Passed skipped) -> Ok skipped
      | _ ->
          let r = judge () in
          Result.iter
            (fun skipped -> Hashtbl.replace table key (Passed skipped))
            r;
          r)
