(** The quasi-birth-death structure of the Markov-modulated queue
    (paper §3.1): generator blocks, balance-equation coefficients and
    the characteristic matrix polynomial.

    With [s] operational modes, the transition blocks are:
    - [A]: mode changes at fixed queue size (environment moves),
    - [B = λI]: arrivals (mode-preserving),
    - [C_j]: departures at queue size [j], the diagonal matrix with
      entries [min(operative_i, j)·µ]; [C_j = C] for [j >= N].

    The balance equations read
    [v_{j−1}B + v_j(A − D^A − B − C_j) + v_{j+1}C_{j+1} = 0] with
    [D^A = diag(row sums of A)], and for [j >= N] the characteristic
    polynomial is [Q(z) = Q0 + Q1 z + Q2 z²] with [Q0 = B],
    [Q1 = A − D^A − B − C], [Q2 = C]. *)

type t

val create : env:Environment.t -> lambda:float -> mu:float -> t
(** Precomputes all blocks, [Q1] included, so the evaluators below do
    not rebuild them. Requires positive rates. *)

val env : t -> Environment.t
val lambda : t -> float
val mu : t -> float

val s : t -> int
(** Number of operational modes. *)

val a : t -> Urs_linalg.Matrix.t
(** The mode-transition block [A]. *)

val b : t -> Urs_linalg.Matrix.t
(** The arrival block [λI]. *)

val c : t -> int -> Urs_linalg.Matrix.t
(** [c t j] is the departure block [C_j]; for [j >= servers] this is the
    level-independent [C]. [c t 0] is the zero matrix. *)

val c_diag : t -> int -> Urs_linalg.Vec.t
(** The diagonal of [C_j] ([C_j] is always diagonal: departures do not
    change the operational mode). *)

val d_a : t -> Urs_linalg.Matrix.t
(** Diagonal matrix of row sums of [A]. *)

val transition_block : t -> int -> Urs_linalg.Matrix.t
(** [transition_block t j] is [T_j = A − D^A − B − C_j], the coefficient
    of [v_j] in the level-[j] balance equation. Always nonsingular (a
    strictly row-diagonally-dominant M-matrix transpose). *)

val transition_diag : t -> int -> Urs_linalg.Vec.t
(** The diagonal of {!transition_block}[ t j], formed entry by entry in
    the same order. Off its diagonal [T_j] equals [Q1], so the two give
    every entry of [T_j] without building it. *)

val q0 : t -> Urs_linalg.Matrix.t

val q1 : t -> Urs_linalg.Matrix.t
(** A copy of [Q1 = T_N], built once by {!create}; bit-identical to
    [transition_block t servers]. *)

val q2 : t -> Urs_linalg.Matrix.t

val char_poly_real : t -> float -> Urs_linalg.Lu.workspace -> unit
(** [char_poly_real t z w] writes [Q(z)] at a real point into the
    caller's [s×s] workspace [w], each entry formed as
    [(Q0 + z·Q1) + z²·Q2] from the prebuilt blocks. {!create} records
    [Q(z)]'s band once: for each row, the first and last column where
    [Q0], [Q1] or [Q2] is nonzero (at [s = 171]: [kl = ku = 18], 783
    nonzeros in a band of 4,200 of the 29,241 entries). The fill ({!Urs_linalg.Lu.reset}) zeroes only the
    windows the workspace's last factorization wrote, then writes only
    the band, so a fill costs the band, not [s²]; every entry equals the
    one the whole-matrix formula gives. Raises [Invalid_argument] if [w]
    is not [s×s]. A solve fills one workspace per real point and
    factors it in place ({!Urs_linalg.Lu.left_null_vector},
    {!Urs_linalg.Lu.log_abs_det}), so no [s×s] matrix is allocated per
    point. The workspace belongs to the call that made it, never to
    [t]: pool domains share [t]. The real-eigenvalue path of {!Spectral}
    and the dominant root of {!Geometric} take their left null vectors
    from it; {!det_q_scaled} takes its determinant. *)

val char_poly_complex : t -> Urs_linalg.Cx.t -> Urs_linalg.Lu.workspace -> unit
(** [char_poly_complex t z w] writes [Q(z) = A + iB] at a complex point
    into the caller's [2s×2s] workspace [w] as the real matrix
    [[A, B], [−B, A]] with each mode's parts interleaved: row and column
    [2i] hold mode [i]'s real part, [2i + 1] its imaginary part. A left
    null vector [y] of it gives one of [Q(z)],
    [u_i = y_{2i} + i·y_{2i+1}] ({!Urs_linalg.Cvec.of_interleaved}):
    [(p + iq)(A + iB) = 0] is [(p, q)·[[A, B], [−B, A]] = 0]. The real
    null space is [span{u, iu}], twice the dimension of the complex
    one, and any vector in it is a complex multiple of [u]. The form
    keeps [Q(z)]'s band: rows [2i] and [2i + 1] span columns
    [2·lo_i .. 2·hi_i + 1], so a fill and factorization cost the band
    as in {!char_poly_real}, whose association forms [A] and [B]. Its
    determinant is [|det Q(z)|²]. Raises [Invalid_argument] if [w] is
    not [2s×2s]. *)

(** {1 The symmetric view of a reversible environment}

    When the environment satisfies detailed balance,
    [π_i·a_ij = π_j·a_ji], [D = diag(π)] makes [K = D^½·Q1·D^−½]
    symmetric (off the diagonal [k_ij = √(a_ij·a_ji)], on it [Q1]'s), so
    in [w = 1/z] the characteristic polynomial is similar to the
    symmetric [Q_w(w) = λw²·I + K·w + C]. For a stable queue it is
    hyperbolic: its [2s] eigenvalues are real, and [−Q_w] is positive
    definite on the gap [(1, 1/z_s)] between the [s] eigenvalues inside
    the unit disk and the others. The paper's hyperexponential periods,
    with or without limited repair crews, are reversible; Erlang and
    Coxian periods, whose phases advance one way, are not. *)

val reversible : t -> bool
(** Whether detailed balance holds on [Q1]'s off-diagonal, checked by
    {!create} in [O(nnz)]: [log π] spreads from mode [0] along the
    edges of [A] and every edge is held to it within [1e-9]. A one-way
    transition, like an Erlang phase advance, fails at once. *)

val neg_qw : t -> float -> Urs_linalg.Cholesky.t
(** [neg_qw t w] is [−Q_w(w) = −(λw²·I + K·w + C)] as a band of [K]'s
    half bandwidth, ready for {!Urs_linalg.Cholesky.factor}: it has a
    factor exactly when [w] lies in the gap (for [w > 0]). Raises
    [Invalid_argument] unless {!reversible}. *)

val neg_linearization : t -> float -> Urs_linalg.Cholesky.t * Urs_linalg.Vec.t
(** [neg_linearization t mu] is [−L(μ)] for the definite linearization
    [L(w) = w·diag(λI, −I_r) + [[K, Fᵀ], [F, 0]]] of [Q_w], where
    [F = C^½] keeps the [r] modes with [c_i > 0]: [L(w)·(x, y) = 0]
    with [y = F·x/w] gives [Q_w(w)·x = 0], so [L] has the eigenvalues of
    [Q_w] except the [s − r] at [w = 0] ([z = ∞]). The unknowns are
    interleaved, [x_i] then [y_i], so [L] stays banded (half bandwidth
    at most twice [K]'s). Returns the band and the diagonal of [L]'s
    coefficient of [w] in the same order ([λ] at each [x_i], [−1] at
    each [y_i]). [−L(μ)] is positive definite exactly when [−Q_w(μ)] is
    and [μ > 0]. Raises [Invalid_argument] unless {!reversible}. *)

val det_q_scaled : t -> Urs_linalg.Lu.workspace -> float -> float
(** [det_q_scaled t w z] is [det Q(z)] for real [z], rescaled as
    [sign·exp(log|det|/s)] to avoid overflow — same sign and same roots
    as the determinant, used for locating the dominant eigenvalue.
    [w] is an [s×s] workspace: it receives [Q(z)] and then its LU
    factors. *)

val eigenpair_residual : t -> Urs_linalg.Cx.t -> Urs_linalg.Cvec.t -> float
(** [eigenpair_residual t z u] is [‖u·Q(z)‖∞ / ‖u‖∞] — the a-posteriori
    accuracy of a left eigenpair of the characteristic polynomial
    ([infinity] for a zero vector). Near machine epsilon for a
    well-conditioned solve; the health diagnostics flag anything
    materially larger. Reads the prebuilt blocks over [Q(z)]'s band, each
    entry formed in complex arithmetic as [Q0 + (Q1·z + Q2·z²)]. *)

val generator_residual : t -> Urs_linalg.Vec.t array -> int -> float
(** [generator_residual t vs j] is the infinity-norm residual of the
    level-[j] balance equation given consecutive probability vectors
    [vs = [| v_{j−1}; v_j; v_{j+1} |]]. It reads the prebuilt blocks
    ([T_j] differs from [Q1] only on the diagonal) and gives the value
    the explicit [B], [T_j] and [C_{j+1}] would. *)

(** {1 The boundary levels} *)

type boundary = {
  levels : Urs_linalg.Vec.t array;
      (** [x_0 .. x_{N−1}] for [gamma]: the boundary vectors up to the
          normalization. *)
  gamma : Urs_linalg.Vec.t;
      (** The level-[N] system's null vector, unit 2-norm, largest
          component positive ({!Urs_linalg.Lu.null_vector}). *)
  condition : float;
      (** The worst {!Urs_linalg.Lu.pivot_condition} over the [N] level
          factorizations, at least [1.]. *)
}

val boundary :
  t ->
  phi0:Urs_linalg.Matrix.t ->
  phi1:Urs_linalg.Matrix.t ->
  (boundary, [ `Singular ]) result
(** [boundary t ~phi0 ~phi1] solves the balance equations of levels
    [0 .. N] given the levels above the boundary as
    [v_{N+r}ᵀ = Φ_r·γᵀ] for [r = 0, 1], with [Φ_r] real [s×s]: forward
    elimination [S_j = −M_j⁻¹·C_{j+1}ᵀ] with [M_j = λS_{j−1} + T_jᵀ],
    each [M_j] filled into one {!Urs_linalg.Lu.workspace} and factored
    there in place ([N] factorizations); then
    [W = −M_{N−1}⁻¹·C·Φ0], [γ] the null vector of
    [λW + T_Nᵀ·Φ0 + C·Φ1], and back substitution [x_{N−1} = W·γᵀ],
    [x_j = S_j·x_{j+1}]. The spectral expansion passes
    [Φ_r = (z_k^{N+r}·u_k)] in a real basis ({!Spectral}), the
    matrix-geometric method [Φ0 = I] and [Φ1 = Rᵀ]
    ({!Matrix_geometric}). The caller normalizes. [Error `Singular]
    when a level block has an exactly zero pivot. *)
