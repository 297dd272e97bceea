let check_dims q0 q1 q2 =
  let s = q0.Matrix.rows in
  if
    (not (Matrix.is_square q0))
    || (not (Matrix.is_square q1))
    || (not (Matrix.is_square q2))
    || q1.Matrix.rows <> s
    || q2.Matrix.rows <> s
  then invalid_arg "Companion: blocks must be square of equal order";
  s

let reversed ~q0 ~q1 ~q2 =
  let s = check_dims q0 q1 q2 in
  let f = Lu.factor_exn q0 in
  let b0 = Lu.solve_matrix f q2 in
  (* Q0⁻¹ Q2 *)
  let b1 = Lu.solve_matrix f q1 in
  (* Q0⁻¹ Q1 *)
  let m = Matrix.create (2 * s) (2 * s) in
  Matrix.blit ~src:(Matrix.identity s) ~dst:m 0 s;
  Matrix.blit ~src:(Matrix.scale (-1.0) b0) ~dst:m s 0;
  Matrix.blit ~src:(Matrix.scale (-1.0) b1) ~dst:m s s;
  m

let eigenvalues_inside_unit_disk ?(tol = 1e-9) ?max_iter ?observe ~q0 ~q1 ~q2
    () =
  let m = reversed ~q0 ~q1 ~q2 in
  let ws = Eigen.eigenvalues ?max_iter ?observe m in
  let zs =
    Array.to_list ws
    |> List.filter_map (fun w ->
           let mw = Cx.modulus w in
           (* |w| > 1 + tol <=> |z| < 1 - tol'; w ≈ 0 is an infinite z *)
           if mw > 1.0 +. tol then Some (Cx.inv w) else None)
  in
  let arr = Array.of_list zs in
  Array.sort Cx.compare_by_modulus arr;
  arr
