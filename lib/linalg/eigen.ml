let eigenvalues ?max_iter ?observe a =
  let h = Hessenberg.reduce (Hessenberg.balance a) in
  Qr_eig.eigenvalues_hessenberg ?max_iter ?observe h

let shifted a z =
  let ca = Cmatrix.of_real a in
  let n = a.Matrix.rows in
  for i = 0 to n - 1 do
    Cmatrix.set ca i i (Cx.sub (Cmatrix.get ca i i) z)
  done;
  ca

let right_eigenvector a z = Clu.null_vector (shifted a z)

let left_eigenvector a z = Clu.left_null_vector (shifted a z)

let residual_right a z v =
  let av = Cmatrix.mul_vec (Cmatrix.of_real a) v in
  Cvec.norm2 (Cvec.sub av (Cvec.scale z v))

let residual_left a z u =
  let ua = Cmatrix.vec_mul u (Cmatrix.of_real a) in
  Cvec.norm2 (Cvec.sub ua (Cvec.scale z u))
