(** Exact steady-state solution of the Markov-modulated queue by the
    method of spectral expansion (paper §3.1; Mitrani & Chakka 1995).

    For queue sizes [j >= N] the solution has the form
    [v_j = Σ_k γ_k u_k z_k^j] where [z_k] are the [s] eigenvalues of the
    characteristic polynomial [Q(z)] inside the unit disk and [u_k] the
    corresponding left eigenvectors (eqs. (17)–(19)). The boundary
    vectors [v_0..v_{N−1}] and coefficients [γ_k] are obtained from the
    level-[0..N] balance equations (block-tridiagonal forward
    elimination, then a null-vector computation) and the normalization
    condition (eq. (20)). *)

type error =
  | Unstable of Stability.verdict
      (** The queue has no steady state (eq. (11) violated). *)
  | Eigenvalue_count of { expected : int; found : int }
      (** The companion eigensolve did not find exactly [s] eigenvalues
          strictly inside the unit disk — usually a symptom of being too
          close to the stability boundary or of ill-conditioning at
          large [N] (the paper reports the same failure mode for
          [N ≳ 24]). *)
  | Numerical of string  (** Other numerical failure. *)

val pp_error : Format.formatter -> error -> unit

type t
(** A solved model. *)

(** Why the eigenvalue stage took the companion path. *)
type fallback =
  | Not_reversible  (** The environment fails detailed balance. *)
  | No_gap_shift
      (** [−Q_w(1 + t)] has no Cholesky factor for any [t = 2^−k],
          [k <= 40]: no shift was found in the gap. *)
  | Cholesky  (** [−L(μ)] has no Cholesky factor at the chosen shift. *)
  | Count  (** Other than [s] eigenvalues of [H] are positive. *)
  | Ql_cap  (** The QL iteration reached its sweep cap. *)

type eig_path =
  | Definite
      (** Eigenvalues of the symmetric standard form of the definite
          linearization ({!Qbd.neg_linearization}): Householder
          tridiagonalization and implicit QL. *)
  | Companion of fallback
      (** Balancing, Hessenberg reduction and Francis QR on the
          [2s×2s] companion matrix. *)

val solve : ?max_iter:int -> Qbd.t -> (t, error) result
(** Solve the model. The eigenvalue stage takes the {!Definite} path
    for a {!Qbd.reversible} environment and the companion path for
    every other one, or when the definite path cannot finish (see
    {!fallback}); no option chooses. [max_iter] bounds the sweeps per
    eigenvalue of the QL or QR iteration (default [100] — lower it to
    force a controlled stall in tests, doctor probes and [urs serve
    --solve-max-iter]): a QL that reaches it falls back to the
    companion path, and a Francis QR that reaches it fails the solve
    with a [Numerical "QR iteration did not converge ..."] error.
    Companion eigenvalues within [1e-9] of the unit circle count as
    outside the unit disk; the definite path's lie below [1/μ < 1] by
    construction. A real eigenvalue's left eigenvector comes from the
    [s×s] real [Q(z)] ({!Qbd.char_poly_real}); a conjugate pair's from
    the interleaved [2s×2s] real form of [Q(z)] at the member with
    positive imaginary part ({!Qbd.char_poly_complex}), the other
    member's being its conjugate (counted in
    [urs_spectral_conjugate_shortcuts_total]). The QR step returns a
    pair as exact conjugates at adjacent indices; a complex eigenvalue
    without one fails the solve with
    [Numerical "unpaired complex eigenvalue"]. The boundary runs
    {!Qbd.boundary} in real arithmetic for every spectrum: a pair
    [(z, z̄)] contributes the columns [Re(z^{N+r}·u)] and
    [Im(z̄^{N+r}·ū)] to [Φ_r], and its coefficients [g], [ḡ] map back
    as [γ = (g + i·ḡ)/2] and its conjugate. Its [N] factorizations
    count in [urs_spectral_lu_factorizations_total].

    A successful solve computes its {!residual} once, after the
    [urs_spectral_solve] span closes. The QL and the Francis QR
    iterations run through {!Urs_obs.Convergence.track}: with recording
    on each leaves a per-sweep ["qr"] convergence trace (off-diagonal
    residual, shift, deflations), not converged when it reaches its
    cap; both count in [urs_qr_sweeps_total]. The solve writes no
    ledger record and sets no gauge: [Solver.evaluate] records it. *)

val solve_with_path :
  ?max_iter:int -> Qbd.t -> (t, error) result * eig_path option
(** {!solve}, with the path the eigenvalue stage took beside the result
    — also when the solve fails after that stage ran; [None] when it
    failed before (an unstable model). *)

val fallback_name : fallback -> string
(** ["not_reversible"], ["no_gap_shift"], ["cholesky"], ["count"] or
    ["ql_cap"]. *)

val qbd : t -> Qbd.t

val eig_path : t -> eig_path
(** Which path computed the eigenvalues. *)

val eigenvalues : t -> Urs_linalg.Cx.t array
(** The [s] eigenvalues inside the unit disk, ascending modulus. *)

val dominant_eigenvalue : t -> float
(** The largest-modulus eigenvalue [z_s]; always real positive. *)

val probability : t -> mode:int -> jobs:int -> float
(** Steady-state probability [p(i, j)] of mode [i] with [j] jobs. *)

val level_probability : t -> int -> float
(** [P(queue length = j) = v_j · 1]. *)

val tail_probability : t -> int -> float
(** [P(queue length >= j)]. *)

val queue_length_quantile : t -> float -> int
(** [queue_length_quantile t p] is the smallest [j] with
    [P(queue length <= j) >= p]; [p] in [(0, 1)]. *)

val mean_queue_length : t -> float
(** [L = Σ_j j (v_j · 1)], evaluated with closed-form geometric sums. *)

val mean_response_time : t -> float
(** [W = L/λ] (Little's law). *)

val mean_waiting_jobs : t -> float
(** Mean number of jobs waiting (not in service), [L − λ/µ]: in steady
    state the expected number in service equals the offered load. *)

val mean_waiting_time : t -> float
(** Mean time in queue before service starts, [W − 1/µ]. *)

val mode_marginals : t -> Urs_linalg.Vec.t
(** Marginal mode probabilities [π_i = Σ_j p(i,j)]; must agree with
    {!Environment.stationary_mode_probability}. *)

val mean_busy_servers : t -> float
(** Expected number of servers actively serving,
    [Σ_{i,j} min(ops(i), j)·p(i,j)] — equals [λ/µ] in steady state
    (a useful internal consistency check). *)

val residual : t -> float
(** Largest infinity-norm residual of the level-[0..N+2] balance
    equations and the normalization — an a-posteriori accuracy
    certificate, computed once by {!solve}. *)

(** {1 Numerical-health probes} — consumed by {!Diagnostics}. *)

val mass_defect : t -> float
(** [|Σ_j v_j·1 − 1|] over the full horizon (boundary head plus
    closed-form spectral tail) — probability-mass conservation. *)

val eigen_residuals : t -> float array
(** Per-eigenpair residuals [‖u_k Q(z_k)‖∞ / ‖u_k‖∞], in the order of
    {!eigenvalues}. *)

val max_eigen_residual : t -> float

val boundary_condition : t -> float
(** Worst pivot-ratio condition estimate
    ({!Urs_linalg.Lu.pivot_condition}) over the [N] LU factorizations
    of the boundary block-tridiagonal elimination ({!Qbd.boundary}), at
    least [1.]. *)
