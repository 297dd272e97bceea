(** Matrix-geometric (Neuts) solution of the same queue — an independent
    exact method used to cross-validate the spectral expansion (the two
    must agree to within numerical accuracy; cf. Mitrani & Chakka 1995,
    which compares exactly these two approaches).

    For levels [j >= N] the steady state satisfies [v_{N+r} = v_N Rʳ]
    where [R] is the minimal nonnegative solution of
    [Q0 + R Q1 + R² Q2 = 0], computed here by the classical fixed-point
    iteration [R ← −(Q0 + R²Q2) Q1⁻¹]. The boundary levels are solved
    with the same block-tridiagonal elimination as the spectral method. *)

type error =
  | Unstable of Stability.verdict
  | No_convergence of { iterations : int; delta : float }
      (** The R iteration failed to reach tolerance. *)
  | Numerical of string

val pp_error : Format.formatter -> error -> unit

type t

val solve : ?tol:float -> ?max_iter:int -> Qbd.t -> (t, error) result
(** Defaults: [tol = 1e-13] (entrywise change per sweep),
    [max_iter = 200_000]. When {!Urs_obs.Convergence.recording} is on,
    the fixed-point iteration records an ["mg_r"] convergence trace
    (entrywise delta per sweep). *)

val qbd : t -> Qbd.t

val r_matrix : t -> Urs_linalg.Matrix.t
(** The rate matrix [R]. *)

val r_iterations : t -> int
(** Fixed-point sweeps used. *)

val spectral_radius_estimate : t -> float
(** Estimate of [sp(R)] by 200 steps of power iteration; must equal the
    dominant spectral-expansion eigenvalue [z_s]. {!solve} computes it
    once, after its span closes, and publishes that value in the
    [urs_spectral_dominant_z{strategy="mg"}] gauge and the [mg.solve]
    ledger record's [spectral_radius]; this returns the same value. *)

val probability : t -> mode:int -> jobs:int -> float
val level_probability : t -> int -> float
val mean_queue_length : t -> float
val mean_response_time : t -> float
val mode_marginals : t -> Urs_linalg.Vec.t
