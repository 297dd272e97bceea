(** Driver for the dense nonsymmetric eigenvalue problem. *)

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
