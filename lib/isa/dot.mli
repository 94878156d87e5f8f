(** Graphviz rendering of a block's dataflow graph.

    Instructions are nodes; target arcs are edges, with predicate arcs
    drawn dashed (the paper's figures draw predicates as dashed or
    annotated arcs). Reads enter from the top, writes and exits sink at
    the bottom. *)

val program_to_dot : Program.t -> string
