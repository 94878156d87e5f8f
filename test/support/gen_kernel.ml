(* Compatibility shim: random kernel generation now lives in lib/fuzz
   (Edge_fuzz.Gen), shared by the test suite and bin/fuzz.exe. Programs
   are closed over a fixed memory layout — two 64-element int arrays at
   fixed addresses plus two scalar parameters — so every run of a
   generated kernel is comparable across the reference interpreter and
   both simulators. *)

let generate = Edge_fuzz.Gen.generate
let default_args = Edge_harness.Tracekit.default_args
let default_mem = Edge_harness.Tracekit.default_mem
