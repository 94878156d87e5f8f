(** Textual TRIPS assembly.

    The format is exactly what {!Block.pp} / {!Program.pp} print, so
    programs round-trip through text:

    {v
    program (entry main)
    block main
      R0  read g2 -> I0.L
      I0   tlti #5 -> I1.P -> I2.P
      I1   bro_t #0 [exit 0]
      I2   bro_f #0 [exit 1]
      I3   sd #0 [lsid 0]
      W0  write g16
      stores: 0
      exit 0: body
      exit 1: @halt
    v}

    Targets are [I<n>.L], [I<n>.R], [I<n>.P] (left/right/predicate
    operand of instruction n) or [W<n>] (write slot n). Instructions with
    an immediate print it as [#k]; memory operations carry [[lsid n]] and
    branches [[exit n]]. The [_t]/[_f] suffix is the predicate field. *)

val parse_program : string -> (Program.t, string) result
val parse_block : string -> (Block.t, string) result
