(** Preprocessing for the nonsymmetric eigenvalue problem: Osborne
    balancing and reduction to upper Hessenberg form.

    Both transformations are similarity transforms, so they preserve
    eigenvalues; neither is reversible here (we only compute
    eigenvalues, not eigenvectors, from the reduced form). *)

val balance : Matrix.t -> Matrix.t
(** [balance a] returns a diagonally-scaled similarity of the square
    matrix [a] whose rows and columns have comparable norms, improving
    the accuracy of subsequent QR iteration. Its loops index the copy's
    flat data directly: a [Matrix.get]/[Matrix.set] call boxes its
    float without flambda, which made balancing the largest allocator
    of a spectral solve. The sums and scalings run in the same order,
    so the result is the same bit for bit. *)

val reduce : Matrix.t -> Matrix.t
(** [reduce a] returns an upper Hessenberg matrix similar to the square
    matrix [a], computed by stabilized elementary transformations
    (Gaussian elimination with pivoting). Entries below the first
    subdiagonal of the result are exactly zero. *)

val is_hessenberg : ?tol:float -> Matrix.t -> bool
(** Whether [a] is square and all entries below the first subdiagonal
    are [<= tol] (default [0.]) in absolute value. *)
