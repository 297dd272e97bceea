(** Driver for the dense nonsymmetric eigenvalue problem and
    eigenvector extraction by inverse iteration. *)

val eigenvalues :
  ?max_iter:int ->
  ?observe:(Qr_eig.progress -> unit) ->
  Matrix.t ->
  Cx.t array
(** All eigenvalues of a square real matrix, as complex numbers in
    conjugate pairs, computed by balancing, Hessenberg reduction and
    double-shift QR. Order is unspecified;
    sort with {!Cx.compare_by_modulus} if needed. [max_iter] and
    [observe] are forwarded to {!Qr_eig.eigenvalues_hessenberg}. *)

val right_eigenvector : Matrix.t -> Cx.t -> Cvec.t
(** [right_eigenvector a z] returns a unit-norm [v] with [a v ≈ z v],
    computed by inverse iteration on [(a - z I)]. [z] should be a
    converged eigenvalue of [a]. *)

val left_eigenvector : Matrix.t -> Cx.t -> Cvec.t
(** [left_eigenvector a z] returns a unit-norm row vector [u] with
    [u a ≈ z u]. *)

val residual_right : Matrix.t -> Cx.t -> Cvec.t -> float
(** [residual_right a z v] is [‖a v − z v‖₂], a convergence diagnostic. *)

val residual_left : Matrix.t -> Cx.t -> Cvec.t -> float
(** [residual_left a z u] is [‖u a − z u‖₂]. *)
