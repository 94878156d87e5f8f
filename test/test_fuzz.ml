(* Fuzz-subsystem regression suite (lib/fuzz).

   Three layers: every kernel in test/corpus/ — minimized reproducers of
   past compiler bugs plus hand-written stress shapes — is replayed
   through the full differential oracle; a fixed-seed soak runs fresh
   generated programs through the same oracle; and the compiled
   artifacts of a representative workload slice are checked against the
   static block validator under every configuration. *)

module Fz = Edge_fuzz

let corpus = Fz.Corpus.load_dir "corpus"

let corpus_present () =
  if List.length corpus < 6 then
    Alcotest.failf "corpus has %d entries; expected the checked-in set"
      (List.length corpus)

let replay (name, src) =
  Alcotest.test_case ("corpus " ^ name) `Quick (fun () ->
      match Fz.Fuzz.replay_source ~name src with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s" e)

(* 200 fresh programs through every configuration, both simulators and
   the validator; seeds far from test_diff's to extend coverage, small
   sizes to keep the suite fast. Deterministic for any job count. *)
let soak () =
  let report =
    Fz.Fuzz.run ~jobs:4 ~min_size:4 ~max_size:14 ~seed:10_000 ~n:200 ()
  in
  match report.Fz.Fuzz.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%d failures; first: %a"
        (List.length report.Fz.Fuzz.failures)
        Fz.Fuzz.pp_failure f

let workload_slice =
  [ "genalg"; "ospf"; "bezier01"; "rspeed01"; "canrdr01"; "a2time01" ]

let workload_artifacts () =
  let workloads =
    List.filter
      (fun w -> List.mem w.Edge_workloads.Workload.name workload_slice)
      Edge_workloads.Registry.all
  in
  if workloads = [] then Alcotest.fail "workload slice resolved to nothing";
  match Fz.Fuzz.validate_workloads ~jobs:4 ~workloads () with
  | _, [] -> ()
  | _, (label, e) :: _ -> Alcotest.failf "%s: %s" label e

let tests =
  (Alcotest.test_case "corpus present" `Quick corpus_present
  :: List.map replay corpus)
  @ [
      Alcotest.test_case "soak 200 fixed seeds" `Quick soak;
      Alcotest.test_case "workload artifacts validate" `Quick
        workload_artifacts;
    ]
