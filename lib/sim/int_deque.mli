(** Allocation-free double-ended queue of nonnegative ints (job slots,
    server indices) over a reusable ring buffer. The simulation job
    queue pushes preempted jobs to the front (preempt-resume) and new
    arrivals to the back; in steady state no operation allocates. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 16) is rounded up to a power of two. *)

val length : t -> int
val is_empty : t -> bool

val push_back : t -> int -> unit
val push_front : t -> int -> unit

val pop_front : t -> int
(** The front element, or [-1] when empty. Stored values must be
    nonnegative for the sentinel to be unambiguous. *)
