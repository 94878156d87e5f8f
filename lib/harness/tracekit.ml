(* One-stop helpers for tracing small `.k` kernels: compile a source
   string under a configuration, run the cycle simulator with a
   collector attached, and render the deterministic text form the golden
   tests compare byte-for-byte.

   The kernel convention is defined here, the lowest library the fuzzer
   (lib/fuzz/gen.ml) and dfpd's source jobs also see: kernels take
   (int x, int y, int* A, int* B) with A and B pointing at two
   64-element arrays of a fixed pattern, so corpus reproducers and
   served kernels replay identically everywhere. *)

module Conv = Edge_isa.Conventions
module Mem = Edge_isa.Mem

let array_len = 64
let addr_a = 4096
let addr_b = 8192
let mem_size = 16384
let default_args = [ 7L; -3L; Int64.of_int addr_a; Int64.of_int addr_b ]

let setup mem =
  for i = 0 to array_len - 1 do
    Mem.store_int mem (addr_a + (8 * i)) (Int64.of_int ((i * 37) - 90));
    Mem.store_int mem (addr_b + (8 * i)) (Int64.of_int (1000 - (i * 13)))
  done;
  default_args

let default_mem () =
  let mem = Mem.create ~size:mem_size in
  ignore (setup mem : int64 list);
  mem

type traced = {
  events : Edge_obs.Event.t list;
  metrics : Edge_obs.Metrics.t;
  stats : Edge_sim.Stats.t;
}

let compile_source source config =
  match Edge_lang.Parser.parse source with
  | Error e -> Error ("parse: " ^ e)
  | Ok ast -> (
      match Edge_lang.Lower.lower ast with
      | Error e -> Error ("lower: " ^ e)
      | Ok cfg -> (
          match Dfp.Driver.compile_cfg cfg config with
          | Error e -> Error ("compile: " ^ e)
          | Ok c -> Ok c))

let default_regs () =
  let regs = Array.make Conv.num_regs 0L in
  List.iteri (fun i v -> regs.(Conv.param_reg i) <- v) default_args;
  regs

let placement (c : Dfp.Driver.compiled) n =
  match List.assoc_opt n c.Dfp.Driver.placements with
  | Some p -> p
  | None -> [||]

let run_traced ?(machine = Edge_sim.Machine.default)
    ?(level = Edge_obs.Trace.Full) (c : Dfp.Driver.compiled) =
  let obs, events, metrics = Edge_obs.Obs.collector ~level () in
  let regs = default_regs () in
  let mem = default_mem () in
  match
    Edge_sim.Backend.run ~machine ~placement:(placement c) ~obs
      c.Dfp.Driver.program ~regs ~mem
  with
  | Ok stats -> Ok { events = events (); metrics; stats }
  | Error e -> Error e

let trace_source ?machine ?level ~source ~config () =
  match compile_source source config with
  | Error e -> Error e
  | Ok c -> run_traced ?machine ?level c

let header ?machine ~kernel ~config ~cycles () =
  (* the default machine stays implicit so the pre-existing grid goldens
     keep their exact bytes; any other machine names itself *)
  let machine_header =
    match machine with None -> [] | Some m -> [ ("machine", m) ]
  in
  [ ("kernel", kernel); ("config", config) ]
  @ machine_header
  @ [ ("cycles", string_of_int cycles) ]

let render ?machine ~kernel ~config t =
  Edge_obs.Trace.render_text
    ~header:
      (header ?machine ~kernel ~config ~cycles:t.stats.Edge_sim.Stats.cycles ())
    t.events
