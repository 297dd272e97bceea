(** Cholesky factorization of a banded symmetric positive definite
    matrix, and the standard form of a symmetric-definite pencil.

    A {!t} stores the lower band of an [n×n] symmetric matrix with half
    bandwidth [p]: entry [(i, j)], [i − p <= j <= i], and nothing else
    (entries further from the diagonal are zero). {!factor} overwrites
    it with the lower triangular [G] of [A = G·Gᵀ], which has the same
    band, in [n·p²/2] multiply-adds. The spectral solver uses it twice
    on reversible models: as a definiteness test (does [−Q_w(w)] have a
    factor?) and to turn the pencil of its definite linearization into
    the symmetric matrix {!standard_form}. *)

type t

val band : n:int -> p:int -> t
(** [band ~n ~p]: an [n×n] band of half bandwidth [p], all zero.
    Raises [Invalid_argument] if [n < 0] or [p < 0]. *)

val get : t -> int -> int -> float
(** [get t i j] reads entry [(i, j)] of the symmetric matrix ([(j, i)]
    when [j > i]), [0.] outside the band; after {!factor}, the entries
    of [G] on and below the diagonal. *)

val set : t -> int -> int -> float -> unit
(** [set t i j v] writes entry [(i, j)] of the lower band. Raises
    [Invalid_argument] unless [j <= i < n] and [i − j <= p]. *)

val factor : t -> bool
(** [factor t] replaces the band by the Cholesky factor [G] in place
    and returns [true], or returns [false] at the first pivot that is
    not positive (NaN included): the matrix is not positive definite
    to working precision, and [t] then holds a partial factor. *)

val standard_form : t -> Vec.t -> Matrix.t
(** [standard_form g d], for a factor [g] from {!factor} of [B = G·Gᵀ]
    and a diagonal [d], is the symmetric [n×n] matrix
    [H = G⁻¹·diag(d)·G⁻ᵀ]: the pencil [diag(d) − θ·B] has the
    eigenvalues of [H], and by Sylvester's law of inertia as many of
    them are positive as [d] has positive entries. Computed row by row
    ([G⁻¹·diag(d)] by forward substitution, then each row of [H]'s lower
    triangle from its own row), in [n²·p] multiply-adds, and mirrored
    into the upper triangle. Raises [Invalid_argument] if [d] does not
    have [n] entries. *)
