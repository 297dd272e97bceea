(** Brute-force oracle: truncate the queue at a finite level [J], build
    the full generator of the resulting finite CTMC ([s·(J+1)] states)
    and solve the global balance equations directly by dense LU.

    This is exponentially more expensive than spectral expansion and
    slightly biased by the truncation (arrivals at level [J] are
    dropped), but it shares {e no} code path with the structured
    solvers — the test suite uses it as an independent ground truth.
    Choose [levels] so that the tail mass {!truncation_mass} is
    negligible. *)

type error =
  | Unstable of Stability.verdict
  | Too_large of { states : int; limit : int }
      (** The truncated chain would exceed the dense-solve budget. *)
  | Numerical of string

val pp_error : Format.formatter -> error -> unit

type t

val solve : ?levels:int -> Qbd.t -> (t, error) result
(** [solve q] truncates at [levels] (default 200) queue levels. The
    dense solve is refused with [Too_large] beyond 4000 states. *)

val levels : t -> int

val probability : t -> mode:int -> jobs:int -> float
val level_probability : t -> int -> float
val mean_queue_length : t -> float
val mean_response_time : t -> float

val truncation_mass : t -> float
(** Probability of the highest retained level — an upper indicator of
    the truncation bias. *)
