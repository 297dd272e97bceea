(** LU factorization with partial pivoting for dense real matrices.

    Factors a square matrix [a] as [P a = L U] where [P] is a row
    permutation, [L] is unit lower triangular and [U] is upper
    triangular.

    The elimination skips exact zeros in three ways, and the factors are
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
      156,825 updates for [Q(z)] at [s = 171]);
    - it reads and swaps each row only inside its {e window} (below).
      A bare matrix ({!factor}, {!factor_regularized}) goes in as a
      copy whose windows span every row.

    {2:workspaces Workspaces}

    A {!workspace} is an [n×n] row-major matrix that also records, for
    every row [i], a column window [lo_i .. hi_i]: outside its window a
    row holds only [+0]. It serves a sequence of matrices with one
    sparsity pattern, such as the [Q(z_k)] of a spectral solve or the
    determinant scan of the geometric approximation, one at a time:
    - {!reset} zeroes only the windows the last use wrote and installs
      the new matrix's windows; the caller then writes each row inside
      its window ([Qbd.char_poly_real] writes [Q(z)]'s band);
    - {!factor_in_place}, {!log_abs_det} and {!left_null_vector}
      factor it {e in place}: afterwards it holds the packed factors. The kl and last-column
      scans, the maximum modulus behind a patched pivot, row swaps and
      both sweeps of every transposed solve stay inside the windows,
      and the factorization widens a row's window wherever it writes
      fill, so the windows still bound the factors.
    Every nonzero goes through the operations of dense elimination in
    the same order, so the factors, determinants and null vectors equal
    those of the whole matrix bit for bit, up to the sign of an exact
    zero (a skipped [x − 0·y] leaves [x = −0] as it is). A workspace
    belongs to one call at a time, never to a value that pool domains
    share.

    {2:kernel The row-update kernel}

    Every row AXPY [x_c ← x_c − a·y_c] of the factorization (the
    elimination of a pivot row from the rows below it), of
    {!solve_matrix} and {!solve_diagonal} (a solved row from the rows
    it feeds) and of both sweeps of {!solve_transposed} runs through
    one private kernel: four lanes a step and a remainder loop, without
    bounds checks, each lane the plain loop's subtraction in its order
    (no reassociation, no fused multiply-add), so every result is the
    plain loop's bit for bit. The checks move to the entries: {!factor}
    and {!factor_regularized} reject a matrix whose [data] does not
    hold [rows · cols] entries ([Matrix.t] is a public record), and so
    does {!solve_matrix} for its right-hand sides; a workspace's storage
    is [n×n] by construction. In a release build the kernel is inlined
    into its callers; the dev profile compiles with [-opaque] and calls
    it once per row. *)

type t
(** An LU factorization. *)

exception Singular
(** Raised by {!factor_exn} and the solvers when a pivot is exactly zero
    (the matrix is singular to working precision). *)

val factor : Matrix.t -> (t, [ `Singular ]) result
(** [factor a] computes the factorization of a copy of [a], or reports
    singularity. Raises [Invalid_argument] if [a] is not square or its
    [data] does not hold [rows · cols] entries. [a] is not modified. *)

val factor_exn : Matrix.t -> t
(** Like {!factor} but raises {!Singular}. *)

val factor_regularized : Matrix.t -> t * bool
(** Like {!factor_exn} but replaces an exactly-zero pivot with
    [1e-300 + ε·max|a_ij|], so that factorization always succeeds. The
    boolean reports whether any pivot was patched. Intended for inverse
    iteration on (near-)singular matrices, as {!Clu.factor_regularized}. *)

val dim : t -> int
(** Order of the factored matrix. *)

type workspace
(** An [n×n] matrix with a column window per row, factored in place
    (see {!section-workspaces} above). *)

val workspace : int -> workspace
(** [workspace n]: all entries [+0], every window empty. *)

val reset : workspace -> lo:int array -> hi:int array -> float array
(** [reset w ~lo ~hi] zeroes the windows of [w] (as its last
    factorization left them), makes columns [lo.(i) .. hi.(i)] the
    window of row [i] ([lo.(i) > hi.(i)] for an empty row) and returns
    the row-major storage itself, entry [(i, j)] at [i·n + j]. The
    caller writes each row only inside its new window. After
    {!factor_in_place}, {!log_abs_det} or {!left_null_vector} the same
    array holds the packed factors: [L]'s multipliers below the
    diagonal, [U] on and above it, rows in pivot order. The arrays [lo]
    and [hi] are copied, not kept. Raises [Invalid_argument] if their
    lengths are not [n] or a window leaves [0 .. n−1]. *)

val factor_in_place : workspace -> (t, [ `Singular ]) result
(** [factor_in_place w] factors the matrix in the workspace {e in
    place}, as {!factor} factors its copy: the same operations in the
    same order, so the factors of a workspace whose windows span every
    row are those of {!factor} bit for bit. No [n×n] copy is made; the
    factorization aliases [w] and is valid until the next {!reset} of
    [w]. The spectral solver's boundary elimination factors each level's
    dense [M_j] this way, in one workspace per solve. *)

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
    matrix such as [λI] the solve costs [O(n·(n + cols))]. Raises
    [Invalid_argument] if [b] does not have [dim lu] rows or its [data]
    does not hold [rows · cols] entries. *)

val solve_diagonal : t -> Vec.t -> Matrix.t
(** [solve_diagonal lu c] is [a⁻¹·diag(c)], equal to
    [solve_matrix lu (Matrix.diagonal c)] (up to the sign of an exact
    zero), without forming [diag(c)]. With its columns in pivot order
    the result stays lower triangular through the forward sweep, whose
    row updates stop at the diagonal: about a third less arithmetic than
    {!solve_matrix}, and no per-column extraction. The sweeps run in the
    matrix it returns, whose columns go back from pivot order one row
    at a time, so a call allocates one [n×n] array and one row. Zeros
    in [c] are allowed; raises [Invalid_argument] if [c] does not have
    [dim lu] entries. *)

val det : Matrix.t -> float
(** Determinant via LU; [0.] for singular matrices. *)

val det_of_factor : t -> float
(** Determinant from an existing factorization. *)

val log_abs_det : workspace -> float * int
(** [(log |det|, sign)] of the matrix in the workspace, with sign in
    {-1, 0, 1}; avoids overflow for large matrices. Sign [0] means
    singular. Factors the workspace {e in place}. *)

val inverse : Matrix.t -> (Matrix.t, [ `Singular ]) result
(** Matrix inverse: {!solve_diagonal} with ones. *)

val solve_system : Matrix.t -> Vec.t -> (Vec.t, [ `Singular ]) result
(** One-shot [a x = b] convenience wrapper. *)

val left_null_vector : workspace -> Vec.t
(** Left null vector of the (near-)singular matrix in the workspace:
    [u] with [u a ≈ 0], unit 2-norm, its largest-modulus component
    positive. Four sweeps of inverse iteration on the factors of
    {!factor_regularized}, started from the real part of the start
    vector of {!Clu.left_null_vector}, so that for a real matrix the two
    agree after {!Cvec.normalize}. A sweep whose 2-norm overflows (a
    patched pivot near [1e-300], as in a zero matrix) is first scaled
    by its largest modulus; every other sweep is normalized as by
    {!Vec.normalize}. Factors the workspace {e in place}. *)
