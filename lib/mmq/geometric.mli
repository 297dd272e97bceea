(** The heavy-traffic geometric approximation (paper §3.2; Mitrani 2005).

    All spectral-expansion terms except the dominant eigenvalue [z_s]
    are discarded: the queue size becomes geometric with parameter
    [z_s], independent of the operational mode, with
    [v_j = u_s/(u_s·1) (1−z_s) z_s^j] for all [j >= 0] (eq. (21)). The
    approximation is asymptotically exact as the load approaches 1, is
    far cheaper than the exact solution, and remains numerically robust
    at sizes where the exact method becomes ill-conditioned.

    [z_s] is located directly as the largest real root of [det Q(z)] in
    (0, 1) — no full eigensolve is needed. *)

type error =
  | Unstable of Stability.verdict
  | Root_not_found
      (** No sign change of [det Q] was detected in (0, 1). *)
  | Root_exhausted of { iterations : int; width : float; best : float }
      (** Brent's refinement of the bracketed root ran out of
          iterations ({!Urs_linalg.Rootfind.Exhausted}): the bracket
          was still [width] wide around the best estimate [best].
          Previously the solver silently accepted the unconverged
          guess; now the exhaustion is surfaced so {!Diagnostics} can
          turn it into a verdict. *)

val pp_error : Format.formatter -> error -> unit

type t

val solve : Qbd.t -> (t, error) result
(** Locate [z_s] by a 400-point sign scan of [det Q(z)] over (0, 1)
    and Brent's refinement of the largest bracketed root. The
    refinement runs through {!Urs_obs.Convergence.track} (solver
    ["brent"]), whose trace is not converged when the scan finds no
    root or the refinement is exhausted. *)

val qbd : t -> Qbd.t

val dominant_eigenvalue : t -> float
(** The geometric parameter [z_s]. *)

val mode_weights : t -> Urs_linalg.Vec.t
(** The normalized left eigenvector [u_s/(u_s·1)] — the (approximate)
    conditional mode distribution at every queue length. *)

val probability : t -> mode:int -> jobs:int -> float
val level_probability : t -> int -> float
val tail_probability : t -> int -> float

val queue_length_quantile : t -> float -> int
(** Smallest [j] with [P(queue length <= j) >= p]; closed form
    [⌈ln(1−p)/ln z⌉ − 1]. *)

val mean_queue_length : t -> float
(** [z_s/(1−z_s)] — the mean of the geometric distribution. *)

val mean_response_time : t -> float
