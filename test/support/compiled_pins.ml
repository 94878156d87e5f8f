(* The compiler's output, pinned.  One line per (input, configuration):

     name config md5(image) md5(placements) static_instrs static_blocks
       static_fanout_moves explicit_predicates md5(pass_counters)

   and [name config error md5(message)] for a compile that fails.  The
   inputs are the registry workloads under every oracle configuration
   plus [hand_optimized], the example kernels and the crash corpus
   under every oracle configuration, and 40 fixed-seed generated
   kernels under every oracle configuration.  A compiler change that
   moves any emitted byte, placement, static count or pass counter
   shows up here, even when no simulated cycle count moves.

   [make regen-golden] writes test/golden/compiled.digests; the
   "compiled code pinned" test recompiles everything and compares.
   Compiles run with the per-pass checker off and the fuzz enumerator
   hook cleared: neither changes the output, and both cost time. *)

module Oracle = Edge_fuzz.Oracle
module Gen = Edge_fuzz.Gen

let file_name = "compiled.digests"
let md5 s = Digest.to_hex (Digest.string s)

(* every (name, config name, config, lowering) to pin, in file order *)
let inputs () =
  let parsed name source =
    (name, fun () -> Result.bind (Edge_lang.Parser.parse source) Edge_lang.Lower.lower)
  in
  let workloads =
    List.concat_map
      (fun (w : Edge_workloads.Workload.t) ->
        let lower () =
          Result.bind (Edge_workloads.Workload.parse w) Edge_lang.Lower.lower
        in
        List.map
          (fun (cn, c) -> (w.Edge_workloads.Workload.name, cn, c, lower))
          (Oracle.configs @ [ ("Hand", Dfp.Config.hand_optimized) ]))
      Edge_workloads.Registry.all
  in
  let examples =
    List.map
      (fun k -> parsed ("examples/" ^ k ^ ".k") (Goldens.kernel_source k))
      Goldens.kernels
  in
  let corpus =
    let dir = Goldens.find_dir [ "test/corpus"; "corpus" ] in
    List.map
      (fun (f, src) -> parsed ("corpus/" ^ f) src)
      (Edge_fuzz.Corpus.load_dir dir)
  in
  let generated =
    List.init 40 (fun i ->
        let seed = i + 1 in
        let size = Gen.size_for ~min_size:4 ~max_size:30 i in
        ( Printf.sprintf "gen:seed=%d,size=%d" seed size,
          fun () -> Edge_lang.Lower.lower (Gen.generate ~seed ~size) ))
  in
  workloads
  @ List.concat_map
      (fun (name, lower) ->
        List.map (fun (cn, c) -> (name, cn, c, lower)) Oracle.configs)
      (examples @ corpus @ generated)

let render_placements ps =
  String.concat ";"
    (List.map
       (fun (n, a) ->
         n ^ ":"
         ^ String.concat "," (Array.to_list (Array.map string_of_int a)))
       ps)

let render_counters cs =
  String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) cs)

(* a compile's pinned fields: the image, placement and pass-counter
   digests and the static counts, or the digest of the error *)
let fields (result : (Dfp.Driver.compiled, string) result) =
  match result with
  | Error e -> [ "error"; md5 e ]
  | Ok c ->
      let image =
        match Edge_isa.Image.encode_program c.Dfp.Driver.program with
        | Ok b -> md5 (Bytes.to_string b)
        | Error e -> "unencodable:" ^ md5 e
      in
      [
        image;
        md5 (render_placements c.Dfp.Driver.placements);
        string_of_int c.Dfp.Driver.static_instrs;
        string_of_int c.Dfp.Driver.static_blocks;
        string_of_int c.Dfp.Driver.static_fanout_moves;
        string_of_int c.Dfp.Driver.explicit_predicates;
        md5 (render_counters c.Dfp.Driver.pass_counters);
      ]

let line (name, config_name, config, lower) =
  let result =
    Result.bind (lower ()) (fun cfg ->
        Dfp.Driver.compile_cfg ~check:false cfg config)
  in
  String.concat " " (name :: config_name :: fields result)

(* [f ()] with the fuzz enumerator hook cleared *)
let without_enum_hook f =
  let hook = !Dfp.Opt_ineff.cross_validate in
  Dfp.Opt_ineff.cross_validate := None;
  Fun.protect ~finally:(fun () -> Dfp.Opt_ineff.cross_validate := hook) f

(* the pinned lines of the current compiler *)
let lines () = without_enum_hook (fun () -> List.map line (inputs ()))

let path () = Filename.concat (Goldens.golden_dir ()) file_name
