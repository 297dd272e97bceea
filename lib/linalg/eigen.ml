let eigenvalues ?max_iter ?observe a =
  let h = Hessenberg.reduce (Hessenberg.balance a) in
  Qr_eig.eigenvalues_hessenberg ?max_iter ?observe h
