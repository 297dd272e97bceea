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
  let a = Matrix.copy a0 in
  let n = a.Matrix.rows in
  let d = a.Matrix.data in
  (* flat-array indexing in the O(n³) loops: see the note in Lu *)
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
          for j = m to n - 1 do
            d.(ri + j) <- d.(ri + j) -. (y *. d.(rm + j))
          done;
          for j = 0 to n - 1 do
            let rj = j * n in
            d.(rj + m) <- d.(rj + m) +. (y *. d.(rj + i))
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
