(* Osborne balancing, following the classical EISPACK/Numerical-Recipes
   algorithm with radix-2 scaling (exact similarity, no rounding). *)
let balance a0 =
  if not (Matrix.is_square a0) then invalid_arg "Hessenberg.balance: not square";
  let a = Matrix.copy a0 in
  let n = a.Matrix.rows in
  (* flat-array indexing, as in [reduce]: a Matrix.get/set call boxes
     its float without flambda *)
  let d = a.Matrix.data in
  let radix = 2.0 in
  let sqrdx = radix *. radix in
  let continue_scaling = ref true in
  while !continue_scaling do
    continue_scaling := false;
    for i = 0 to n - 1 do
      let ri = i * n in
      let c = ref 0.0 and r = ref 0.0 in
      for j = 0 to n - 1 do
        if j <> i then begin
          c := !c +. abs_float d.((j * n) + i);
          r := !r +. abs_float d.(ri + j)
        end
      done;
      if !c <> 0.0 && !r <> 0.0 then begin
        let g = ref (!r /. radix) in
        let f = ref 1.0 in
        let s = !c +. !r in
        while !c < !g do
          f := !f *. radix;
          c := !c *. sqrdx
        done;
        g := !r *. radix;
        while !c > !g do
          f := !f /. radix;
          c := !c /. sqrdx
        done;
        if (!c +. !r) /. !f < 0.95 *. s then begin
          continue_scaling := true;
          let ginv = 1.0 /. !f and f = !f in
          for j = 0 to n - 1 do
            d.(ri + j) <- d.(ri + j) *. ginv
          done;
          for j = 0 to n - 1 do
            d.((j * n) + i) <- d.((j * n) + i) *. f
          done
        end
      end
    done
  done;
  a

(* Reduction to upper Hessenberg form by stabilized elementary similarity
   transformations (EISPACK elmhes). *)
let reduce a0 =
  if not (Matrix.is_square a0) then invalid_arg "Hessenberg.reduce: not square";
  let n = a0.Matrix.rows in
  Row_update.check_storage "Hessenberg.reduce" a0.Matrix.data ~rows:n ~cols:n;
  let a = Matrix.copy a0 in
  let d = a.Matrix.data in
  (* flat-array indexing in the O(n³) loops: see the note in Lu. The
     row pass is Row_update.sub and the column pass is unrolled by hand;
     both are unchecked, which the storage check above makes safe. *)
  for m = 1 to n - 2 do
    (* pivot: largest |a.(j).(m-1)| for j >= m *)
    let piv = ref m in
    let x = ref d.((m * n) + m - 1) in
    for j = m + 1 to n - 1 do
      if abs_float d.((j * n) + m - 1) > abs_float !x then begin
        x := d.((j * n) + m - 1);
        piv := j
      end
    done;
    if !piv <> m then begin
      (* swap rows and columns piv <-> m (similarity) *)
      let rp = !piv * n and rm = m * n in
      for j = m - 1 to n - 1 do
        let tmp = d.(rp + j) in
        d.(rp + j) <- d.(rm + j);
        d.(rm + j) <- tmp
      done;
      for j = 0 to n - 1 do
        let rj = j * n in
        let tmp = d.(rj + !piv) in
        d.(rj + !piv) <- d.(rj + m);
        d.(rj + m) <- tmp
      done
    end;
    if !x <> 0.0 then begin
      let rm = m * n in
      for i = m + 1 to n - 1 do
        let ri = i * n in
        let y = d.(ri + m - 1) in
        if y <> 0.0 then begin
          let y = y /. !x in
          d.(ri + m - 1) <- y;
          Row_update.sub d (ri + m) y d (rm + m) (n - m);
          (* column m += y · column i, four rows a step: entry (j, m)
             at p = j·n + m, entry (j, i) at p + di *)
          let di = i - m and p = ref m and stop = (n * n) + m in
          while !p + (3 * n) < stop do
            let p0 = !p in
            let p1 = p0 + n in
            let p2 = p1 + n in
            let p3 = p2 + n in
            Array.unsafe_set d p0
              (Array.unsafe_get d p0 +. (y *. Array.unsafe_get d (p0 + di)));
            Array.unsafe_set d p1
              (Array.unsafe_get d p1 +. (y *. Array.unsafe_get d (p1 + di)));
            Array.unsafe_set d p2
              (Array.unsafe_get d p2 +. (y *. Array.unsafe_get d (p2 + di)));
            Array.unsafe_set d p3
              (Array.unsafe_get d p3 +. (y *. Array.unsafe_get d (p3 + di)));
            p := p3 + n
          done;
          while !p < stop do
            let p0 = !p in
            Array.unsafe_set d p0
              (Array.unsafe_get d p0 +. (y *. Array.unsafe_get d (p0 + di)));
            p := p0 + n
          done
        end
      done
    end
  done;
  (* the multipliers were parked below the subdiagonal; clear them *)
  for i = 2 to n - 1 do
    for j = 0 to i - 2 do
      d.((i * n) + j) <- 0.0
    done
  done;
  a

let is_hessenberg ?(tol = 0.0) a =
  let n = a.Matrix.rows and d = a.Matrix.data in
  let ok = ref (Matrix.is_square a) in
  if !ok then
    for i = 2 to n - 1 do
      let ri = i * n in
      for j = 0 to i - 2 do
        if abs_float d.(ri + j) > tol then ok := false
      done
    done;
  !ok

(* Householder reduction of a symmetric matrix to tridiagonal form
   (LAPACK's dsytd2 on the upper triangle, unblocked). Step k reflects
   rows and columns k+1..n−1 so that row k is zero right of column k+1:
   with v (v_{k+1} = 1) and τ from dlarfg, p = τ·A₂₂·v,
   w = p − (τ/2)(pᵀv)·v and A₂₂ ← A₂₂ − v·wᵀ − w·vᵀ. Row-major storage
   makes the upper triangle's rows contiguous: the symmetric product
   walks each row once, a dot product for p_i and an AXPY into p_j
   (j > i) fused in one unchecked loop, and the rank-2 update is two
   row updates per row. 2n³/3 multiply-adds in all. *)
let tridiagonalize a =
  if not (Matrix.is_square a) then
    invalid_arg "Hessenberg.tridiagonalize: not square";
  let n = a.Matrix.rows in
  Row_update.check_storage "Hessenberg.tridiagonalize" a.Matrix.data ~rows:n
    ~cols:n;
  let x = a.Matrix.data in
  let e = Array.make (max 0 (n - 1)) 0.0 in
  let v = Array.make n 0.0 and pw = Array.make n 0.0 in
  for k = 0 to n - 3 do
    let rk = k * n in
    let alpha = x.(rk + k + 1) in
    let tail = ref 0.0 in
    for j = k + 2 to n - 1 do
      tail := !tail +. (x.(rk + j) *. x.(rk + j))
    done;
    if !tail = 0.0 then e.(k) <- alpha
    else begin
      let norm = sqrt ((alpha *. alpha) +. !tail) in
      let beta = if alpha >= 0.0 then -.norm else norm in
      let tau = (beta -. alpha) /. beta in
      let scale = 1.0 /. (alpha -. beta) in
      v.(k + 1) <- 1.0;
      for j = k + 2 to n - 1 do
        v.(j) <- x.(rk + j) *. scale
      done;
      e.(k) <- beta;
      Array.fill pw (k + 1) (n - k - 1) 0.0;
      (* unchecked: rows and columns k+1 .. n−1 of the n×n storage *)
      for i = k + 1 to n - 1 do
        let ri = i * n in
        let vi = Array.unsafe_get v i in
        let acc = ref (Array.unsafe_get x (ri + i) *. vi) in
        for j = i + 1 to n - 1 do
          let aij = Array.unsafe_get x (ri + j) in
          acc := !acc +. (aij *. Array.unsafe_get v j);
          Array.unsafe_set pw j (Array.unsafe_get pw j +. (aij *. vi))
        done;
        pw.(i) <- pw.(i) +. !acc
      done;
      let pv = ref 0.0 in
      for j = k + 1 to n - 1 do
        pw.(j) <- tau *. pw.(j);
        pv := !pv +. (pw.(j) *. v.(j))
      done;
      let half = 0.5 *. tau *. !pv in
      for j = k + 1 to n - 1 do
        pw.(j) <- pw.(j) -. (half *. v.(j))
      done;
      for i = k + 1 to n - 1 do
        let ri = (i * n) + i in
        Row_update.sub x ri v.(i) pw i (n - i);
        Row_update.sub x ri pw.(i) v i (n - i)
      done
    end
  done;
  if n >= 2 then e.(n - 2) <- x.(((n - 2) * n) + n - 1);
  (Array.init n (fun i -> x.((i * n) + i)), e)
