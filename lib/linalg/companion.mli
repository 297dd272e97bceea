(** Block companion linearization of quadratic matrix polynomials.

    For [Q(z) = Q0 + Q1 z + Q2 z²] (all [s] x [s], real) with
    {e nonsingular} [Q0], the reversed polynomial
    [P(w) = Q2 + Q1 w + Q0 w²] with [w = 1/z] has nonsingular leading
    coefficient, so its block companion matrix is an ordinary (not
    generalized) eigenproblem. Roots [w] of [det P(w) = 0] map to roots
    [z = 1/w] of [det Q(z) = 0]; [w = 0] corresponds to an infinite root
    [z] (these arise when [Q2] is singular and are discarded by the
    caller). This is how the spectral-expansion method obtains the
    eigenvalues inside the unit disk without a QZ algorithm when the
    environment is not reversible. [Q(z)] itself is formed at a point
    by [Qbd.char_poly_real], and at a complex point as its interleaved
    real form by [Qbd.char_poly_complex]. *)

val reversed : q0:Matrix.t -> q1:Matrix.t -> q2:Matrix.t -> Matrix.t
(** [reversed ~q0 ~q1 ~q2] is the [2s] x [2s] block companion matrix
    [[0, I], [−Q0⁻¹Q2, −Q0⁻¹Q1]] of the reversed polynomial. Raises
    [Invalid_argument] on dimension mismatch and [Lu.Singular] when [Q0]
    is singular. *)

val eigenvalues_inside_unit_disk :
  ?tol:float ->
  ?max_iter:int ->
  ?observe:(Qr_eig.progress -> unit) ->
  q0:Matrix.t ->
  q1:Matrix.t ->
  q2:Matrix.t ->
  unit ->
  Cx.t array
(** All roots [z] of [det Q(z) = 0] with [|z| < 1 - tol]
    (default [tol = 1e-9]), obtained from the reversed companion matrix
    (roots with [|w| <= 1 + tol], i.e. [|z| >= 1], are dropped, as are
    [w ≈ 0] infinite roots). Sorted by ascending modulus. [max_iter] and
    [observe] are forwarded to the QR eigensolve
    ({!Qr_eig.eigenvalues_hessenberg}). *)
