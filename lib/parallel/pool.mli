(** A one-shot parallel map over OCaml 5 domains, for fanning
    independent experiments (workload x config pairs, fuzz kernels)
    across cores. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], never below 1: the
    spawned domains plus the calling domain saturate the machine. *)

val run : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [run ~jobs f xs] computes [List.map f xs] on the calling domain and
    [jobs - 1] spawned ones (default [default_jobs ()]; never more
    lanes than elements), each claiming the next index from one atomic
    counter. Results come back in input order whatever the completion
    order. If an application raises, the first exception in input
    order is re-raised, with its backtrace, after every element has
    settled. [~jobs:1] is [List.map]. *)
