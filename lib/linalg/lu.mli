(** LU factorization with partial pivoting for dense real matrices.

    Factors a square matrix [a] as [P a = L U] where [P] is a row
    permutation, [L] is unit lower triangular and [U] is upper
    triangular.

    The elimination skips exact zeros in two ways, and the factors are
    still those of plain dense elimination:
    - it computes the lower bandwidth [kl] of [a] once and bounds each
      step's pivot search and row eliminations to the [kl] rows below
      the pivot. Rows further down are still rows of [a], zero in the
      pivot column, so partial pivoting cannot widen the band ([kl = 18]
      for [Q(z)] at [s = 171]);
    - it stops each row update at the pivot row's last nonzero column
      (tracked through row swaps), so the row updates of a banded matrix
      such as the block-tridiagonal [Q(z)] of the spectral solver touch
      only its band and the fill that pivoting adds (28,917 instead of
      156,825 updates for [Q(z)] at [s = 171]).

    {!factor} and {!factor_regularized} work on a copy. {!log_abs_det}
    and {!left_null_vector} factor their argument in place: in every
    caller it is a temporary (the [Q(z)] that [Qbd.char_poly_real]
    fills), and a copy would be the largest allocation of the call. *)

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
(** [solve_matrix lu b] solves [a x = b] for all columns of [b] in one
    pass over the factors, updating whole rows of right-hand sides. Each
    entry sees the operations of {!solve} in the same order; a zero
    multiplier or zero [U] entry, whose update would subtract exact
    zeros, is skipped. So the result is [solve] column by column (up to
    the sign of an exact zero), and against the factors of a diagonal
    matrix such as [λI] the solve costs [O(n·(n + cols))]. *)

val solve_diagonal : t -> Vec.t -> Matrix.t
(** [solve_diagonal lu c] is [a⁻¹·diag(c)], equal to
    [solve_matrix lu (Matrix.diagonal c)] (up to the sign of an exact
    zero), without forming [diag(c)]. With its columns in pivot order
    the work array stays lower triangular through the forward sweep,
    whose row updates stop at the diagonal: about a third less
    arithmetic than {!solve_matrix}, and no per-column extraction. Zeros
    in [c] are allowed. *)

val det : Matrix.t -> float
(** Determinant via LU; [0.] for singular matrices. *)

val det_of_factor : t -> float
(** Determinant from an existing factorization. *)

val log_abs_det : Matrix.t -> float * int
(** [(log |det|, sign)] with sign in {-1, 0, 1}; avoids overflow for large
    matrices. Sign [0] means singular. Factors its argument {e in place}:
    afterwards it holds packed LU factors, not the matrix. *)

val inverse : Matrix.t -> (Matrix.t, [ `Singular ]) result
(** Matrix inverse: {!solve_diagonal} with ones. *)

val solve_system : Matrix.t -> Vec.t -> (Vec.t, [ `Singular ]) result
(** One-shot [a x = b] convenience wrapper. *)

val left_null_vector : Matrix.t -> Vec.t
(** Left null vector of a (near-)singular square matrix: [u] with
    [u a ≈ 0], unit 2-norm, its largest-modulus component positive. Four
    sweeps of inverse iteration on the factors of {!factor_regularized},
    started from the real part of the start vector of
    {!Clu.left_null_vector}, so that for a real matrix the two agree
    after {!Cvec.normalize}. Factors its argument {e in place}:
    afterwards it holds packed LU factors, not the matrix. *)
