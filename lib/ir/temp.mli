(** Temporaries: the virtual registers of the three-address IR.

    Intra-block communication in the final TRIPS code is expressed through
    temporary names (Section 5 of the paper); only [read]/[write]
    instructions touch architectural registers. *)

type t = int

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

(** Fresh-name supply. A generator is created per function being
    compiled. *)
module Gen : sig
  type temp := t
  type t

  val create : unit -> t
  val fresh : t -> temp
  val next_above : t -> temp -> unit
  (** Ensure subsequently generated temps are strictly greater than the
      given one; used when resuming generation over an existing IR. *)

  val copy : t -> t
  (** An independent supply that continues from the same point: temps
      drawn from either no longer advance the other. *)
end
