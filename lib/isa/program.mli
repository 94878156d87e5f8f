(** Whole programs: a set of named blocks plus an entry point.

    Inter-block communication happens exclusively through the 128
    architectural registers and memory (Section 3); there is no other
    global state. *)

type t = { entry : string; blocks : (string * Block.t) list }

val make : entry:string -> Block.t list -> (t, string) result
(** Fails on duplicate block names, a missing entry block, or any exit
    naming an unknown block. *)

val find : t -> string -> Block.t option
val validate : t -> (unit, string list) result
(** Validates every block and the inter-block exit graph. *)

val pp : Format.formatter -> t -> unit
