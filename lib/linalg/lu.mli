(** LU factorization with partial pivoting for dense real matrices.

    Factors a square matrix [a] as [P a = L U] where [P] is a row
    permutation, [L] is unit lower triangular and [U] is upper
    triangular.

    The elimination stops each row update at the pivot row's last
    nonzero column (tracked through row swaps). The skipped terms are
    exact zeros, so the factors are those of plain dense elimination,
    while the row updates of a banded matrix such as the
    block-tridiagonal [Q(z)] of the spectral solver touch only its band
    and the fill that pivoting adds (28,917 instead of 156,825 updates
    for [Q(z)] at [s = 171]). *)

type t
(** An LU factorization. *)

exception Singular
(** Raised by {!factor_exn} and the solvers when a pivot is exactly zero
    (the matrix is singular to working precision). *)

val factor : Matrix.t -> (t, [ `Singular ]) result
(** [factor a] computes the factorization, or reports singularity. Raises
    [Invalid_argument] if [a] is not square. [a] is not modified. *)

val factor_exn : Matrix.t -> t
(** Like {!factor} but raises {!Singular}. *)

val factor_regularized : Matrix.t -> t * bool
(** Like {!factor_exn} but replaces an exactly-zero pivot with
    [1e-300 + ε·max|a_ij|], so that factorization always succeeds. The
    boolean reports whether any pivot was patched. Intended for inverse
    iteration on (near-)singular matrices, as {!Clu.factor_regularized}. *)

val dim : t -> int
(** Order of the factored matrix. *)

val pivot_condition : t -> float
(** Ratio of the largest to the smallest pivot modulus [max|u_ii| /
    min|u_ii|] — a cheap lower-bound indicator for the condition number
    of the factored matrix ([infinity] when a pivot is exactly zero).
    Used by the numerical-health diagnostics; a rigorous estimate would
    need Hager's algorithm, which the solvers do not warrant. *)

val solve : t -> Vec.t -> Vec.t
(** [solve lu b] solves [a x = b]. *)

val solve_transposed : t -> Vec.t -> Vec.t
(** [solve_transposed lu b] solves [aᵀ x = b] using the same factors,
    reading them row by row like {!solve}. *)

val solve_matrix : t -> Matrix.t -> Matrix.t
(** [solve_matrix lu b] solves [a x = b] column by column. *)

val det : Matrix.t -> float
(** Determinant via LU; [0.] for singular matrices. *)

val det_of_factor : t -> float
(** Determinant from an existing factorization. *)

val log_abs_det : Matrix.t -> float * int
(** [(log |det|, sign)] with sign in {-1, 0, 1}; avoids overflow for large
    matrices. Sign [0] means singular. *)

val inverse : Matrix.t -> (Matrix.t, [ `Singular ]) result
(** Matrix inverse. *)

val solve_system : Matrix.t -> Vec.t -> (Vec.t, [ `Singular ]) result
(** One-shot [a x = b] convenience wrapper. *)

val left_null_vector : Matrix.t -> Vec.t
(** Left null vector of a (near-)singular square matrix: [u] with
    [u a ≈ 0], unit 2-norm, its largest-modulus component positive. Four
    sweeps of inverse iteration on {!factor_regularized}, started from
    the real part of the start vector of {!Clu.left_null_vector}, so
    that for a real matrix the two agree after {!Cvec.normalize}. *)
