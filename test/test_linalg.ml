(* Tests for the dense linear-algebra substrate: vectors, matrices, LU,
   QR, the Hessenberg/QR eigensolver, companion linearization and root
   finding. *)

(* the library's private row-update kernel, compiled into the tests
   from its source (test/dune); named before [open Urs_linalg], which
   brings in the library's own, inaccessible alias of it *)
module Kernel = Row_update
open Urs_linalg

let approx ?(tol = 1e-9) a b = abs_float (a -. b) <= tol

let check_float ?(tol = 1e-9) msg expected actual =
  if not (approx ~tol expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let rand_state = Random.State.make [| 20260704 |]

let random_matrix n =
  Matrix.init n n (fun _ _ -> Random.State.float rand_state 2.0 -. 1.0)

(* ---- Vec ---- *)

let test_vec_basic () =
  let v = Vec.of_list [ 1.0; -2.0; 3.0 ] in
  check_float "dot" 14.0 (Vec.dot v v);
  check_float "norm2" (sqrt 14.0) (Vec.norm2 v);
  check_float "norm_inf" 3.0 (Vec.norm_inf v);
  check_float "sum" 2.0 (Vec.sum v);
  Alcotest.(check int) "max_abs_index" 2 (Vec.max_abs_index v);
  let w = Vec.add v (Vec.scale 2.0 v) in
  check_float "axpy-like" 9.0 w.(2)

let test_vec_axpy () =
  let x = Vec.of_list [ 1.0; 2.0 ] and y = Vec.of_list [ 10.0; 20.0 ] in
  Vec.axpy 3.0 x y;
  check_float "axpy 0" 13.0 y.(0);
  check_float "axpy 1" 26.0 y.(1)

let test_vec_normalize () =
  let v = Vec.normalize (Vec.of_list [ 3.0; 4.0 ]) in
  check_float "unit norm" 1.0 (Vec.norm2 v);
  check_float "direction" 0.6 v.(0)

let test_vec_mismatch () =
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Vec: dimension mismatch")
    (fun () -> ignore (Vec.add (Vec.create 2) (Vec.create 3)))

(* ---- Matrix ---- *)

let test_matrix_mul () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.mul a b in
  check_float "c00" 19.0 (Matrix.get c 0 0);
  check_float "c01" 22.0 (Matrix.get c 0 1);
  check_float "c10" 43.0 (Matrix.get c 1 0);
  check_float "c11" 50.0 (Matrix.get c 1 1)

let test_matrix_identity_mul () =
  let a = random_matrix 7 in
  let i = Matrix.identity 7 in
  Alcotest.(check bool) "aI = a" true (Matrix.approx_equal (Matrix.mul a i) a);
  Alcotest.(check bool) "Ia = a" true (Matrix.approx_equal (Matrix.mul i a) a)

let test_matrix_transpose () =
  let a = random_matrix 5 in
  Alcotest.(check bool) "transpose involution" true
    (Matrix.approx_equal (Matrix.transpose (Matrix.transpose a)) a)

let test_matrix_vec_mul () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let x = Vec.of_list [ 1.0; 1.0 ] in
  let y = Matrix.mul_vec a x in
  check_float "mul_vec 0" 3.0 y.(0);
  check_float "mul_vec 1" 7.0 y.(1);
  let z = Matrix.vec_mul x a in
  check_float "vec_mul 0" 4.0 z.(0);
  check_float "vec_mul 1" 6.0 z.(1)

let test_matrix_row_sums () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| -3.0; 4.0 |] |] in
  let rs = Matrix.row_sums a in
  check_float "row sum 0" 3.0 rs.(0);
  check_float "row sum 1" 1.0 rs.(1);
  check_float "trace" 5.0 (Matrix.trace a)

let test_matrix_blit () =
  let dst = Matrix.create 4 4 in
  let src = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Matrix.blit ~src ~dst 1 2;
  check_float "blit" 4.0 (Matrix.get dst 2 3);
  check_float "blit untouched" 0.0 (Matrix.get dst 0 0)

(* ---- Lu ---- *)

let test_lu_solve () =
  let a = Matrix.of_arrays [| [| 4.0; 3.0 |]; [| 6.0; 3.0 |] |] in
  let b = Vec.of_list [ 10.0; 12.0 ] in
  match Lu.solve_system a b with
  | Ok x ->
      check_float "x0" 1.0 x.(0);
      check_float "x1" 2.0 x.(1)
  | Error `Singular -> Alcotest.fail "unexpected singular"

let test_lu_random_residual () =
  for n = 1 to 12 do
    let a = random_matrix n in
    let b = Vec.init n (fun _ -> Random.State.float rand_state 1.0) in
    match Lu.solve_system a b with
    | Ok x ->
        let r = Vec.norm_inf (Vec.sub (Matrix.mul_vec a x) b) in
        if r > 1e-9 then Alcotest.failf "residual %g at n=%d" r n
    | Error `Singular -> () (* random singular matrix: astronomically rare *)
  done

let test_lu_transposed_solve () =
  let a = random_matrix 8 in
  let b = Vec.init 8 (fun i -> float_of_int (i + 1)) in
  let f = Lu.factor_exn a in
  let x = Lu.solve_transposed f b in
  let r = Vec.norm_inf (Vec.sub (Matrix.mul_vec (Matrix.transpose a) x) b) in
  if r > 1e-9 then Alcotest.failf "transposed residual %g" r

let test_lu_det () =
  let a = Matrix.of_arrays [| [| 2.0; 0.0 |]; [| 1.0; 3.0 |] |] in
  check_float "det" 6.0 (Lu.det a);
  let sing = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  check_float "singular det" 0.0 (Lu.det sing)

let test_lu_det_permutation_sign () =
  (* a matrix needing a row swap: det must keep its sign *)
  let a = Matrix.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  check_float "det with pivot" (-1.0) (Lu.det a)

let test_lu_inverse () =
  let a = random_matrix 6 in
  match Lu.inverse a with
  | Ok inv ->
      Alcotest.(check bool) "a a⁻¹ = I" true
        (Matrix.approx_equal ~tol:1e-8 (Matrix.mul a inv) (Matrix.identity 6))
  | Error `Singular -> Alcotest.fail "unexpected singular"

(* a workspace holding a copy of [a], every window its whole row *)
let workspace_of a =
  let n = a.Matrix.rows in
  let w = Lu.workspace n in
  let d = Lu.reset w ~lo:(Array.make n 0) ~hi:(Array.make n (n - 1)) in
  Array.blit a.Matrix.data 0 d 0 (n * n);
  w

let test_lu_log_det () =
  let a = Matrix.scalar 5 2.0 in
  let log_d, sign = Lu.log_abs_det (workspace_of a) in
  Alcotest.(check int) "sign" 1 sign;
  check_float "log det" (5.0 *. log 2.0) log_d

let test_lu_singular_detection () =
  let sing = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  (match Lu.factor sing with
  | Error `Singular -> ()
  | Ok _ -> Alcotest.fail "expected singular")

let test_lu_left_null_vector_zero_pivot () =
  (* row 1 is twice row 0, so elimination meets an exactly-zero pivot in
     the last column; u = (2, −1, 0)/√5 is the known left null vector *)
  let a =
    Matrix.of_arrays
      [| [| 2.0; 1.0; 1.0 |]; [| 4.0; 2.0; 2.0 |]; [| 1.0; 3.0; 5.0 |] |]
  in
  (match Lu.factor a with
  | Error `Singular -> ()
  | Ok _ -> Alcotest.fail "expected an exact zero pivot");
  let _, patched = Lu.factor_regularized a in
  Alcotest.(check bool) "pivot patched" true patched;
  let u = Lu.left_null_vector (workspace_of a) in
  let r5 = sqrt 5.0 in
  Array.iteri
    (fun i e -> check_float ~tol:1e-12 (Printf.sprintf "u.(%d)" i) e u.(i))
    [| 2.0 /. r5; -1.0 /. r5; 0.0 |]

let test_lu_left_null_vector_zero_matrix () =
  (* every vector is a null vector of 0; the patched pivots are 1e-300,
     so a sweep reaches 1e300 and its 2-norm overflows *)
  List.iter
    (fun n ->
      let u = Lu.left_null_vector (workspace_of (Matrix.create n n)) in
      check_float ~tol:1e-15 (Printf.sprintf "n=%d: unit norm" n) 1.0
        (Vec.norm2 u);
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: largest entry positive" n)
        true
        (u.(Vec.max_abs_index u) > 0.0))
    [ 1; 2 ];
  let u = Lu.left_null_vector (workspace_of (Matrix.create 1 1)) in
  check_float ~tol:0.0 "1x1" 1.0 u.(0)

let test_lu_workspace_reset_checks () =
  let w = Lu.workspace 3 in
  Alcotest.check_raises "window length"
    (Invalid_argument "Lu.reset: windows do not match the workspace")
    (fun () -> ignore (Lu.reset w ~lo:[| 0; 0 |] ~hi:[| 2; 2 |]));
  Alcotest.check_raises "window range"
    (Invalid_argument "Lu.reset: window out of range") (fun () ->
      ignore (Lu.reset w ~lo:[| 0; 0; 0 |] ~hi:[| 2; 3; 2 |]))

let test_max_abs_nan () =
  let m = Matrix.of_arrays [| [| 1.0; -3.0 |]; [| 2.0; 0.5 |] |] in
  check_float ~tol:0.0 "largest entry" 3.0 (Matrix.max_abs m);
  (* a NaN sticks wherever it sits, also before a larger entry *)
  let m = Matrix.of_arrays [| [| 1.0; Float.nan |]; [| -7.0; 2.0 |] |] in
  Alcotest.(check bool) "real NaN propagates" true
    (Float.is_nan (Matrix.max_abs m));
  let c =
    Cmatrix.init 2 2 (fun i j ->
        if i = 0 && j = 0 then Cx.make 0.5 Float.nan
        else Cx.make (float_of_int (i + j)) 1.0)
  in
  Alcotest.(check bool) "complex NaN propagates" true
    (Float.is_nan (Cmatrix.max_abs c));
  let c = Cmatrix.init 1 2 (fun _ j -> Cx.make 3.0 (float_of_int (4 * j))) in
  check_float ~tol:0.0 "largest modulus" 5.0 (Cmatrix.max_abs c)

(* ---- eigenvalues ---- *)

let sorted_eigs m =
  let e = Eigen.eigenvalues m in
  Array.sort Cx.compare_by_modulus e;
  e

let test_eigen_diagonal () =
  let a = Matrix.diagonal (Vec.of_list [ 3.0; 1.0; 2.0 ]) in
  let e = sorted_eigs a in
  check_float "e0" 1.0 (Cx.re e.(0));
  check_float "e1" 2.0 (Cx.re e.(1));
  check_float "e2" 3.0 (Cx.re e.(2))

let test_eigen_complex_pair () =
  let a = Matrix.of_arrays [| [| 0.0; -1.0 |]; [| 1.0; 0.0 |] |] in
  let e = sorted_eigs a in
  check_float "re" 0.0 (Cx.re e.(0));
  check_float "im magnitude" 1.0 (abs_float (Cx.im e.(0)));
  check_float "conjugate" 0.0 (Cx.im e.(0) +. Cx.im e.(1))

let test_eigen_trace_det_identity () =
  for n = 2 to 14 do
    let a = random_matrix n in
    let e = Eigen.eigenvalues a in
    let sum = Array.fold_left Cx.add Cx.zero e in
    let prod = Array.fold_left Cx.mul Cx.one e in
    check_float ~tol:1e-7 "sum = trace" (Matrix.trace a) (Cx.re sum);
    check_float ~tol:1e-7 "sum imag = 0" 0.0 (Cx.im sum);
    let det = Lu.det a in
    let scale = Float.max 1.0 (abs_float det) in
    if abs_float (Cx.re prod -. det) /. scale > 1e-6 then
      Alcotest.failf "det mismatch at n=%d: %g vs %g" n (Cx.re prod) det
  done

let test_eigen_known_3x3 () =
  (* triangular: eigenvalues are the diagonal *)
  let a =
    Matrix.of_arrays [| [| 5.0; 1.0; 2.0 |]; [| 0.0; -2.0; 7.0 |]; [| 0.0; 0.0; 3.0 |] |]
  in
  let e = sorted_eigs a in
  check_float ~tol:1e-8 "e0" (-2.0) (Cx.re e.(0));
  check_float ~tol:1e-8 "e1" 3.0 (Cx.re e.(1));
  check_float ~tol:1e-8 "e2" 5.0 (Cx.re e.(2))

let test_eigenvector_residuals () =
  let a = random_matrix 10 in
  let e = Eigen.eigenvalues a in
  Array.iter
    (fun z ->
      let v = Eigen.right_eigenvector a z in
      let u = Eigen.left_eigenvector a z in
      if Eigen.residual_right a z v > 1e-8 then Alcotest.fail "right residual";
      if Eigen.residual_left a z u > 1e-8 then Alcotest.fail "left residual")
    e

let test_hessenberg_preserves_eigenvalues () =
  let a = random_matrix 8 in
  let h = Hessenberg.reduce a in
  Alcotest.(check bool) "is hessenberg" true (Hessenberg.is_hessenberg h);
  let e1 = sorted_eigs a in
  let e2 = Qr_eig.eigenvalues_hessenberg h in
  Array.sort Cx.compare_by_modulus e2;
  Array.iteri
    (fun i z ->
      if Cx.modulus (Cx.sub z e2.(i)) > 1e-7 then
        Alcotest.fail "eigenvalues differ after reduction")
    e1

let test_balance_preserves_eigenvalues () =
  let a =
    Matrix.of_arrays
      [| [| 1.0; 1e6 |]; [| 1e-6; 2.0 |] |]
  in
  let b = Hessenberg.balance a in
  let e1 = sorted_eigs a and e2 = sorted_eigs b in
  Array.iteri
    (fun i z ->
      if Cx.modulus (Cx.sub z e2.(i)) > 1e-7 then
        Alcotest.fail "balancing changed the spectrum")
    e1

(* ---- companion / quadratic eigenproblem ---- *)

let test_companion_scalar_quadratic () =
  (* scalar: 2 - 3z + z² = (z-1)(z-2): roots 1, 2 — none inside disk *)
  let m x = Matrix.of_arrays [| [| x |] |] in
  let zs =
    Companion.eigenvalues_inside_unit_disk ~q0:(m 2.0) ~q1:(m (-3.0)) ~q2:(m 1.0) ()
  in
  Alcotest.(check int) "no roots inside" 0 (Array.length zs)

let test_companion_scalar_root_inside () =
  (* (z - 1/2)(z - 3) = 3/2 - 3.5z + z² : root 0.5 inside *)
  let m x = Matrix.of_arrays [| [| x |] |] in
  let zs =
    Companion.eigenvalues_inside_unit_disk ~q0:(m 1.5) ~q1:(m (-3.5)) ~q2:(m 1.0) ()
  in
  Alcotest.(check int) "one root" 1 (Array.length zs);
  check_float ~tol:1e-10 "root value" 0.5 (Cx.re zs.(0))

let test_companion_singular_q2 () =
  (* singular Q2 produces "infinite" roots that must be discarded:
     Q(z) = diag(1.5 - 3.5z + z², 0.25 - 1.25z) — roots 0.5, 3, 0.2 *)
  let q0 = Matrix.diagonal (Vec.of_list [ 1.5; 0.25 ]) in
  let q1 = Matrix.diagonal (Vec.of_list [ -3.5; -1.25 ]) in
  let q2 = Matrix.diagonal (Vec.of_list [ 1.0; 0.0 ]) in
  let zs = Companion.eigenvalues_inside_unit_disk ~q0 ~q1 ~q2 () in
  Alcotest.(check int) "two inside" 2 (Array.length zs);
  check_float ~tol:1e-10 "z0" 0.2 (Cx.re zs.(0));
  check_float ~tol:1e-10 "z1" 0.5 (Cx.re zs.(1))

let test_companion_eigen_satisfy_det () =
  (* random quadratic, all roots found satisfy |det Q(z)| ≈ 0 *)
  let q0 = random_matrix 4 and q1 = random_matrix 4 and q2 = random_matrix 4 in
  let zs = Companion.eigenvalues_inside_unit_disk ~q0 ~q1 ~q2 () in
  Array.iter
    (fun z ->
      let d = Clu.det (Companion.evaluate ~q0 ~q1 ~q2 z) in
      if Cx.modulus d > 1e-6 then
        Alcotest.failf "det Q(z) = %g at claimed root" (Cx.modulus d))
    zs

(* ---- complex modules ---- *)

let test_clu_solve () =
  let n = 6 in
  let a =
    Cmatrix.init n n (fun i j ->
        Cx.make (Random.State.float rand_state 1.0)
          (if i = j then 0.5 else Random.State.float rand_state 0.2))
  in
  let b = Cvec.init n (fun i -> Cx.make (float_of_int i) 1.0) in
  match Clu.solve_system a b with
  | Ok x ->
      let r = Cvec.norm_inf (Cvec.sub (Cmatrix.mul_vec a x) b) in
      if r > 1e-9 then Alcotest.failf "complex residual %g" r
  | Error `Singular -> Alcotest.fail "unexpected singular"

let test_clu_null_vector () =
  (* construct a singular complex matrix with known null vector (1, -1) *)
  let a =
    Cmatrix.init 2 2 (fun i j ->
        let v = [| [| 2.0; 2.0 |]; [| 3.0; 3.0 |] |] in
        Cx.of_float v.(i).(j))
  in
  let v = Clu.null_vector a in
  let r = Cvec.norm_inf (Cmatrix.mul_vec a v) in
  if r > 1e-9 then Alcotest.failf "null vector residual %g" r;
  check_float "unit norm" 1.0 (Cvec.norm2 v)

let test_clu_left_null_vector () =
  let a =
    Cmatrix.init 2 2 (fun i j ->
        let v = [| [| 2.0; 4.0 |]; [| 1.0; 2.0 |] |] in
        Cx.of_float v.(i).(j))
  in
  let u = Clu.left_null_vector a in
  let r = Cvec.norm_inf (Cmatrix.vec_mul u a) in
  if r > 1e-9 then Alcotest.failf "left null residual %g" r

let test_clu_det () =
  let a = Cmatrix.init 2 2 (fun i j -> if i = j then Cx.make 0.0 1.0 else Cx.zero) in
  let d = Clu.det a in
  check_float "det re" (-1.0) (Cx.re d);
  check_float "det im" 0.0 (Cx.im d)

let test_cvec_normalize_phase () =
  let v = Cvec.init 2 (fun i -> if i = 0 then Cx.make 0.0 2.0 else Cx.one) in
  let n = Cvec.normalize v in
  (* dominant component must be rotated to the positive real axis *)
  check_float "dominant is real" 0.0 (Cx.im n.(Cvec.max_abs_index n));
  Alcotest.(check bool) "dominant positive" true (Cx.re n.(Cvec.max_abs_index n) > 0.0)

let test_cmatrix_arithmetic () =
  let a = Cmatrix.init 2 2 (fun i j -> Cx.make (float_of_int (i + j)) 1.0) in
  let b = Cmatrix.identity 2 in
  let sum = Cmatrix.add a b in
  if not (Cx.approx_equal (Cmatrix.get sum 0 0) (Cx.make 1.0 1.0)) then
    Alcotest.fail "add wrong";
  let diff = Cmatrix.sub sum b in
  Alcotest.(check bool) "sub inverts add" true (Cmatrix.approx_equal diff a);
  let scaled = Cmatrix.scale (Cx.make 0.0 1.0) b in
  (* i·I: conj transpose is −i·I *)
  let ct = Cmatrix.conj_transpose scaled in
  if not (Cx.approx_equal (Cmatrix.get ct 0 0) (Cx.make 0.0 (-1.0))) then
    Alcotest.fail "conj transpose wrong"

let test_cx_helpers () =
  let z = Cx.make 3.0 4.0 in
  check_float "modulus" 5.0 (Cx.modulus z);
  check_float "modulus2" 25.0 (Cx.modulus2 z);
  check_float "abs1" 7.0 (Cx.abs1 z);
  Alcotest.(check bool) "is_real false" false (Cx.is_real z);
  Alcotest.(check bool) "is_real true" true (Cx.is_real (Cx.of_float 2.0));
  let w = Cx.div z z in
  Alcotest.(check bool) "z/z = 1" true (Cx.approx_equal w Cx.one);
  Alcotest.(check int) "compare by modulus" (-1)
    (Cx.compare_by_modulus Cx.one z)

let test_eigen_symmetric_real_spectrum () =
  (* symmetric matrices have real eigenvalues *)
  let n = 8 in
  let half = random_matrix n in
  let a = Matrix.scale 0.5 (Matrix.add half (Matrix.transpose half)) in
  let e = Eigen.eigenvalues a in
  Array.iter
    (fun z ->
      if abs_float (Cx.im z) > 1e-7 then
        Alcotest.failf "complex eigenvalue %a of a symmetric matrix" Cx.pp z)
    e

let test_eigen_stochastic_has_unit_eigenvalue () =
  (* a row-stochastic matrix has eigenvalue 1 *)
  let n = 6 in
  let raw = Matrix.init n n (fun _ _ -> Random.State.float rand_state 1.0 +. 0.01) in
  let a =
    Matrix.init n n (fun i j ->
        Matrix.get raw i j /. Vec.sum (Matrix.row raw i))
  in
  let e = Eigen.eigenvalues a in
  let has_one =
    Array.exists (fun z -> Cx.modulus (Cx.sub z Cx.one) < 1e-8) e
  in
  Alcotest.(check bool) "eigenvalue 1 present" true has_one

(* ---- root finding ---- *)

let test_bisect () =
  let root = Rootfind.bisect (fun x -> (x *. x) -. 2.0) 0.0 2.0 in
  check_float ~tol:1e-10 "sqrt 2" (sqrt 2.0) root

let test_brent () =
  let root = Rootfind.brent (fun x -> cos x -. x) 0.0 1.0 in
  check_float ~tol:1e-10 "dottie number" 0.7390851332151607 root

let test_brent_linear () =
  let root = Rootfind.brent (fun x -> (2.0 *. x) -. 1.0) 0.0 10.0 in
  check_float ~tol:1e-9 "linear root" 0.5 root

let test_largest_root () =
  (* roots at 0.3 and 0.8: must find 0.8 *)
  let f x = (x -. 0.3) *. (x -. 0.8) in
  match Rootfind.largest_root_in f 0.0 1.0 with
  | Some r -> check_float ~tol:1e-9 "largest root" 0.8 r
  | None -> Alcotest.fail "no root found"

let test_largest_root_none () =
  match Rootfind.largest_root_in (fun x -> x +. 1.0) 0.0 1.0 with
  | Some _ -> Alcotest.fail "expected no root"
  | None -> ()

(* ---- iteration exhaustion and observation ---- *)

let test_bisect_exhausted () =
  match
    Rootfind.bisect ~max_iter:3 ~tol:1e-15 (fun x -> (x *. x) -. 2.0) 0.0 2.0
  with
  | exception Rootfind.Exhausted { name; iterations; width; best } ->
      Alcotest.(check string) "solver name" "bisect" name;
      Alcotest.(check int) "iterations in payload" 3 iterations;
      if not (width > 0.0 && width < 2.0) then
        Alcotest.failf "bracket width %g not narrowed" width;
      if not (best > 0.0 && best < 2.0) then
        Alcotest.failf "best estimate %g outside bracket" best
  | _ -> Alcotest.fail "3 bisections cannot reach 1e-15"

let test_brent_exhausted () =
  match Rootfind.brent ~max_iter:2 ~tol:1e-15 (fun x -> cos x -. x) 0.0 1.0 with
  | exception Rootfind.Exhausted { name; iterations; _ } ->
      Alcotest.(check string) "solver name" "brent" name;
      Alcotest.(check int) "iterations in payload" 2 iterations
  | _ -> Alcotest.fail "2 Brent steps cannot reach 1e-15"

let test_brent_observed_unchanged () =
  let plain = Rootfind.brent (fun x -> cos x -. x) 0.0 1.0 in
  let iters = ref 0 and last_width = ref infinity in
  let observed =
    Rootfind.brent
      ~observe:(fun ~iteration ~width ~best:_ ->
        incr iters;
        Alcotest.(check int) "iterations count up" !iters iteration;
        last_width := width)
      (fun x -> cos x -. x)
      0.0 1.0
  in
  Alcotest.(check bool) "callback fired" true (!iters > 0);
  if !last_width > 1e-10 then
    Alcotest.failf "final bracket width %g not observed" !last_width;
  (* the callback only reads values already computed: bit-identical *)
  Alcotest.(check bool) "root unchanged" true (plain = observed)

let test_eigen_observed_bit_identical () =
  let a = random_matrix 8 in
  let plain = Eigen.eigenvalues a in
  let sweeps = ref 0 and deflations = ref 0 in
  let observed =
    Eigen.eigenvalues
      ~observe:(fun p ->
        match p.Qr_eig.event with
        | Qr_eig.Sweep -> incr sweeps
        | Qr_eig.Deflate -> incr deflations)
      a
  in
  Alcotest.(check bool) "sweeps observed" true (!sweeps > 0);
  Alcotest.(check bool) "deflations observed" true (!deflations > 0);
  Alcotest.(check int)
    "same count" (Array.length plain) (Array.length observed);
  Array.iteri
    (fun i z ->
      (* exact equality, not approximate: observation must not perturb
         a single floating-point operation *)
      if Cx.re z <> Cx.re observed.(i) || Cx.im z <> Cx.im observed.(i) then
        Alcotest.failf "eigenvalue %d differs under observation" i)
    plain

(* The last step of a double-shift sweep has no third row, and its row
   and column updates add 0.0 where the third term would be, which
   turns a −0 sum into +0. On these two Hessenberg matrices (found by a
   search over small matrices with signed zeros) that shows: the third
   observation's shift, the bottom diagonal entry, is −0 with the 0.0
   added and +0 without it, in the row update (first) and the column
   update (second). The observed (residual, shift) stream and the
   eigenvalues are pinned with %h. *)
let test_qr_signed_zeros_pinned () =
  let run rows =
    let h = Matrix.of_arrays rows in
    let buf = Buffer.create 256 in
    let observe (p : Qr_eig.progress) =
      Buffer.add_string buf (Printf.sprintf "%h %h;" p.residual p.shift)
    in
    let ev = Qr_eig.eigenvalues_hessenberg ~observe h in
    Array.iter
      (fun z ->
        Buffer.add_string buf (Printf.sprintf "%h,%h " (Cx.re z) (Cx.im z)))
      ev;
    Buffer.contents buf
  in
  Alcotest.(check string)
    "row update"
    "0x1p+0 0x0p+0;0x0p+0 0x0p+0;0x1p+0 -0x0p+0;\
     0x1.7d9f4cf754636p-1 0x1.5555555555557p-1;\
     0x1.4c92203f41082p-3 0x1.97749b79f7f54p-1;\
     0x1.9e77d20fa2fa4p-6 0x1.d2f76991b468cp-1;\
     0x1.140651728de2p-9 0x1.eb7465270012dp-1;\
     0x1.e741f2154b28p-12 0x1.f58ea3c0f0571p-1;\
     0x1.c56d36f466ap-14 0x1.faf7379be561cp-1;\
     0x0p+0 0x1.fd7c27efa8c6bp-1;0x0p+0 -0x1.36b4015c5123cp-2;\
     -0x1p-1,-0x1.bb67ae8584caap-1 -0x1p-1,0x1.bb67ae8584caap-1 \
     0x1.0000000000003p+0,-0x1.d30ab0643f369p-28 \
     0x1.0000000000003p+0,0x1.d30ab0643f369p-28 0x0p+0,0x0p+0 "
    (run
       [|
         [| 0.0; -0.0; -0.0; 0.0; -0.0 |];
         [| -1.0; -0.0; -0.0; 0.0; -1.0 |];
         [| 0.0; 1.0; 1.0; 0.0; 1.0 |];
         [| 0.0; 0.0; -1.0; -0.0; 0.0 |];
         [| 0.0; 0.0; 0.0; -1.0; 0.0 |];
       |]);
  Alcotest.(check string)
    "column update"
    "0x1p+0 -0x0p+0;0x0p+0 0x0p+0;0x0p+0 -0x0p+0;0x1.6a09e667f3bcdp+0 0x0p+0;\
     0x0p+0 -0x1.69cd456880e75p-1;0x0p+0 0x1p+0;0x1p+0,0x0p+0 \
     0x1.6a09e6cp-27,0x0p+0 -0x1.6a09e64p-27,0x0p+0 0x0p+0,0x0p+0 \
     0x0p+0,0x0p+0 "
    (run
       [|
         [| 0.0; 0.0; -0.0; 1.0; 0.0 |];
         [| 1.0; 0.0; 0.0; 0.0; -1.0 |];
         [| 0.0; 1.0; 1.0; -0.0; 0.0 |];
         [| 0.0; 0.0; -1.0; -0.0; -0.0 |];
         [| 0.0; 0.0; 0.0; 1.0; -0.0 |];
       |])

let test_qr_exhaustion_payload () =
  let a = random_matrix 8 in
  match Eigen.eigenvalues ~max_iter:1 a with
  | exception Qr_eig.No_convergence { dim; block; iterations } ->
      Alcotest.(check int) "dim" 8 dim;
      Alcotest.(check int) "iterations" 1 iterations;
      Alcotest.(check bool) "stuck block plausible" true
        (block >= 1 && block <= 8)
  | _ -> Alcotest.fail "one sweep cannot triangularize an 8x8 matrix"

(* ---- qcheck properties ---- *)

let small_dim = QCheck2.Gen.int_range 1 8

let gen_matrix =
  QCheck2.Gen.(
    small_dim >>= fun n ->
    array_size (return (n * n)) (float_range (-1.0) 1.0) >|= fun data ->
    Matrix.init n n (fun i j -> data.((i * n) + j)))

let prop_lu_roundtrip =
  QCheck2.Test.make ~name:"lu solve residual small" ~count:60 gen_matrix
    (fun a ->
      let n = a.Matrix.rows in
      let b = Vec.init n (fun i -> float_of_int (i + 1)) in
      match Lu.solve_system a b with
      | Error `Singular -> true (* degenerate draw *)
      | Ok x ->
          let scale = Float.max 1.0 (Matrix.norm_inf a) in
          (* condition number can be large for random matrices; accept a
             generous residual bound *)
          Vec.norm_inf (Vec.sub (Matrix.mul_vec a x) b) /. scale < 1e-6)

(* an n×m matrix with lower bandwidth p and upper bandwidth q; about
   one band entry in five is an exact zero *)
let gen_banded_dims n m =
  QCheck2.Gen.(
    triple (int_range 0 (n - 1)) (int_range 0 (m - 1))
      (array_size (return (n * m))
         (pair (int_range 0 4) (float_range (-1.0) 1.0)))
    >|= fun (p, q, cells) ->
    Matrix.init n m (fun i j ->
        let zero, x = cells.((i * m) + j) in
        if j - i > q || i - j > p || zero = 0 then 0.0 else x))

let gen_banded = QCheck2.Gen.(int_range 1 12 >>= fun n -> gen_banded_dims n n)

(* Gaussian elimination with partial pivoting on [a | b], every row
   update run across the full width: the operations of Lu.factor and
   Lu.solve in the same order, without the row bound. None on an exact
   zero pivot. *)
let dense_solve a b =
  let n = a.Matrix.rows in
  let m = Matrix.to_arrays a and x = Array.copy b in
  try
    for k = 0 to n - 1 do
      let piv = ref k in
      for i = k + 1 to n - 1 do
        if abs_float m.(i).(k) > abs_float m.(!piv).(k) then piv := i
      done;
      if m.(!piv).(k) = 0.0 then raise Exit;
      let r = m.(k) and y = x.(k) in
      m.(k) <- m.(!piv);
      x.(k) <- x.(!piv);
      m.(!piv) <- r;
      x.(!piv) <- y;
      for i = k + 1 to n - 1 do
        let f = m.(i).(k) /. m.(k).(k) in
        for j = k + 1 to n - 1 do
          m.(i).(j) <- m.(i).(j) -. (f *. m.(k).(j))
        done;
        x.(i) <- x.(i) -. (f *. x.(k))
      done
    done;
    for i = n - 1 downto 0 do
      for j = i + 1 to n - 1 do
        x.(i) <- x.(i) -. (m.(i).(j) *. x.(j))
      done;
      x.(i) <- x.(i) /. m.(i).(i)
    done;
    Some x
  with Exit -> None

let row_bound_matches_dense a =
  let n = a.Matrix.rows in
  let b = Vec.init n (fun i -> sin (float_of_int (i + 1))) in
  match (Lu.solve_system a b, dense_solve a b) with
  | Error `Singular, None -> true
  | Ok x, Some y -> Array.for_all2 Float.equal x y
  | _ -> false

let prop_lu_row_bound_banded =
  QCheck2.Test.make ~name:"lu row bound = dense elimination (banded)"
    ~count:200 gen_banded row_bound_matches_dense

let prop_lu_row_bound_dense =
  QCheck2.Test.make ~name:"lu row bound = dense elimination (dense)"
    ~count:100 gen_matrix row_bound_matches_dense

(* a banded matrix plus a dominant entry in each row at a permuted
   column: well conditioned, yet partial pivoting swaps rows *)
let gen_permuted_dominant =
  QCheck2.Gen.(
    gen_banded >>= fun a ->
    let n = a.Matrix.rows in
    shuffle_a (Array.init n Fun.id) >|= fun perm ->
    Matrix.init n n (fun i j ->
        Matrix.get a i j +. if j = perm.(i) then float_of_int (n + 1) else 0.0))

let prop_lu_transposed_solve =
  QCheck2.Test.make ~name:"solve_transposed = solve on the transpose"
    ~count:200 gen_permuted_dominant (fun a ->
      let n = a.Matrix.rows in
      let b = Vec.init n (fun i -> cos (float_of_int (i + 1))) in
      let x = Lu.solve_transposed (Lu.factor_exn a) b in
      let y = Lu.solve (Lu.factor_exn (Matrix.transpose a)) b in
      Vec.norm_inf (Vec.sub x y) <= 1e-12 *. (1.0 +. Vec.norm_inf y))

(* ---- bit-exactness of the zero skips ----

   Lu skips a row update whose multiplier or U entry is an exact zero,
   stops eliminations at the lower bandwidth, and solves diagonal
   right-hand sides on a triangular work array. Each skip drops only
   subtractions of exact zeros, so the properties below compare bits:
   a skipped nonzero or a reordered sum shows up in the last bit. (The
   generated inputs hold no −0.0, the one value a zero subtraction
   changes: +0 − 0 = +0.) *)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* a square matrix to factor: dense, banded with row swaps, or λI *)
let gen_square =
  QCheck2.Gen.(
    oneof
      [
        gen_matrix;
        gen_permuted_dominant;
        ( pair small_dim (float_range 0.5 4.0) >|= fun (n, l) ->
          Matrix.scalar n l );
      ])

(* n right-hand-side columns: dense, banded, or dense with zero columns *)
let gen_rhs n =
  QCheck2.Gen.(
    int_range 1 6 >>= fun m ->
    oneof
      [
        ( array_size (return (n * m)) (float_range (-1.0) 1.0) >|= fun d ->
          Matrix.init n m (fun i j -> d.((i * m) + j)) );
        gen_banded_dims n m;
        ( pair
            (array_size (return m) (int_range 0 2))
            (array_size (return (n * m)) (float_range (-1.0) 1.0))
        >|= fun (zero, d) ->
          Matrix.init n m (fun i j ->
              if zero.(j) = 0 then 0.0 else d.((i * m) + j)) );
      ])

let prop_solve_matrix_by_columns =
  QCheck2.Test.make ~name:"row-wise solve_matrix = solve by columns, bits"
    ~count:300
    QCheck2.Gen.(
      gen_square >>= fun a ->
      gen_rhs a.Matrix.rows >|= fun b -> (a, b))
    (fun (a, b) ->
      match Lu.factor a with
      | Error `Singular -> true
      | Ok f ->
          let x = Lu.solve_matrix f b in
          let ok = ref true in
          for j = 0 to b.Matrix.cols - 1 do
            let xj = Lu.solve f (Matrix.col b j) in
            Array.iteri
              (fun i v ->
                if not (same_bits (Matrix.get x i j) v) then ok := false)
              xj
          done;
          !ok)

let prop_solve_diagonal =
  QCheck2.Test.make ~name:"solve_diagonal = solve_matrix on diag(c), bits"
    ~count:300
    QCheck2.Gen.(
      gen_square >>= fun a ->
      array_size (return a.Matrix.rows)
        (pair (int_range 0 2) (float_range (-2.0) 2.0))
      >|= fun c -> (a, Array.map (fun (z, x) -> if z = 0 then 0.0 else x) c))
    (fun (a, c) ->
      match Lu.factor a with
      | Error `Singular -> true
      | Ok f ->
          let x = Lu.solve_diagonal f c in
          let y = Lu.solve_matrix f (Matrix.diagonal c) in
          Array.for_all2 same_bits x.Matrix.data y.Matrix.data)

(* plain dense elimination with partial pivoting, packed as Lu packs
   its factors (multipliers below the diagonal, U on and above it):
   every row below the pivot, every column to its right. An exact zero
   pivot is replaced by [patch], or ends the elimination with None.
   Also returns the permutation: stored row i came from row perm.(i). *)
let dense_factor ?patch a =
  let n = a.Matrix.rows in
  let m = Matrix.to_arrays a in
  let perm = Array.init n Fun.id in
  try
    for k = 0 to n - 1 do
      let piv = ref k in
      for i = k + 1 to n - 1 do
        if abs_float m.(i).(k) > abs_float m.(!piv).(k) then piv := i
      done;
      if m.(!piv).(k) = 0.0 then (
        match patch with None -> raise Exit | Some eps -> m.(k).(k) <- eps);
      let r = m.(k) and p = perm.(k) in
      m.(k) <- m.(!piv);
      m.(!piv) <- r;
      perm.(k) <- perm.(!piv);
      perm.(!piv) <- p;
      for i = k + 1 to n - 1 do
        let f = m.(i).(k) /. m.(k).(k) in
        m.(i).(k) <- f;
        for j = k + 1 to n - 1 do
          m.(i).(j) <- m.(i).(j) -. (f *. m.(k).(j))
        done
      done
    done;
    Some (Array.concat (Array.to_list m), perm)
  with Exit -> None

(* (log|det|, sign) from dense factors: the permutation's parity times
   the signs of U's diagonal *)
let dense_log_abs_det n (d, perm) =
  let parity = ref 1 and seen = Array.make n false in
  for i = 0 to n - 1 do
    if not seen.(i) then begin
      let j = ref perm.(i) in
      seen.(i) <- true;
      while !j <> i do
        seen.(!j) <- true;
        parity := - !parity;
        j := perm.(!j)
      done
    end
  done;
  let log_acc = ref 0.0 and sign = ref !parity in
  for i = 0 to n - 1 do
    let p = d.((i * n) + i) in
    log_acc := !log_acc +. log (abs_float p);
    if p < 0.0 then sign := - !sign
  done;
  (!log_acc, !sign)

(* Lu.left_null_vector's specification over dense factors: the
   patched-pivot factorization, four transposed solves with every loop
   across the full width, each normalized (by the largest modulus
   first if the 2-norm is 0 or not finite) *)
let dense_left_null_vector a =
  let n = a.Matrix.rows in
  let eps = 1e-300 +. (epsilon_float *. Matrix.max_abs a) in
  match dense_factor ~patch:eps a with
  | None -> None
  | Some (d, perm) ->
      let solve_t b =
        let y = Array.copy b in
        for i = 0 to n - 1 do
          let yi = y.(i) /. d.((i * n) + i) in
          y.(i) <- yi;
          for j = i + 1 to n - 1 do
            y.(j) <- y.(j) -. (d.((i * n) + j) *. yi)
          done
        done;
        for i = n - 1 downto 1 do
          let yi = y.(i) in
          for j = 0 to i - 1 do
            y.(j) <- y.(j) -. (d.((i * n) + j) *. yi)
          done
        done;
        let x = Array.make n 0.0 in
        Array.iteri (fun i p -> x.(p) <- y.(i)) perm;
        x
      in
      let unit y =
        let nrm = Vec.norm2 y in
        if nrm > 0.0 && nrm < infinity then Vec.normalize y
        else Vec.normalize (Vec.scale (1.0 /. Vec.norm_inf y) y)
      in
      let x =
        ref
          (unit
             (Array.init n (fun i ->
                  0.5 +. (0.5 *. sin (float_of_int ((i * 37) + 11))))))
      in
      for _ = 1 to 4 do
        x := unit (solve_t !x)
      done;
      Some (if !x.(Vec.max_abs_index !x) < 0.0 then Vec.scale (-1.0) !x else !x)

(* a banded matrix with one column zeroed: its pivot must be patched *)
let gen_zero_column =
  QCheck2.Gen.(
    gen_banded >>= fun a ->
    let n = a.Matrix.rows in
    int_range 0 (n - 1) >|= fun k ->
    Matrix.init n n (fun i j -> if j = k then 0.0 else Matrix.get a i j))

(* ---- workspaces: windowed rows, factored and refilled in place ----

   A matrix goes into a workspace with a window per row: its first to
   last nonzero column, widened by up to two columns of +0 on either
   side. Lu.log_abs_det and Lu.left_null_vector leave the workspace
   holding the packed factors of the windowed, bandwidth- and
   row-bounded elimination. The factors (the whole storage, so a stale
   entry anywhere shows), the log-determinant and the null vector must
   equal those of dense elimination on the whole matrix. Float.equal,
   not bits, for factors and vectors: plain elimination stores 0/pivot
   (−0 for a negative pivot) where the bounded one leaves the input's
   +0. A workspace is also used again without being cleared by hand,
   so the second matrix meets the windows the first one's pivoting and
   fill widened. *)

let gen_windowed_of gen =
  QCheck2.Gen.(
    gen >>= fun a ->
    let n = a.Matrix.rows in
    array_size (return (2 * n)) (int_range 0 2) >|= fun slack ->
    let lo = Array.make n 0 and hi = Array.make n (-1) in
    for i = 0 to n - 1 do
      let nz =
        List.filter (fun j -> Matrix.get a i j <> 0.0) (List.init n Fun.id)
      in
      match nz with
      | [] ->
          if slack.(i) > 0 then begin
            lo.(i) <- min (n - 1) i;
            hi.(i) <- min (n - 1) (i + slack.(n + i))
          end
      | first :: _ ->
          let last = List.fold_left max first nz in
          lo.(i) <- max 0 (first - slack.(i));
          hi.(i) <- min (n - 1) (last + slack.(n + i))
    done;
    (a, lo, hi))

(* the storage, which holds the factors after a factorization *)
let load w (a, lo, hi) =
  let n = a.Matrix.rows in
  let d = Lu.reset w ~lo ~hi in
  for i = 0 to n - 1 do
    for j = lo.(i) to hi.(i) do
      d.((i * n) + j) <- Matrix.get a i j
    done
  done;
  d

let workspace_matches_dense w ((a, _, _) as input) =
  let storage = load w input in
  let log_d, sign = Lu.log_abs_det w in
  match dense_factor a with
  | None -> sign = 0
  | Some ((d, _) as f) ->
      let ref_log, ref_sign = dense_log_abs_det a.Matrix.rows f in
      sign = ref_sign && same_bits log_d ref_log
      && Array.for_all2 Float.equal storage d

let null_vector_matches_dense w ((a, _, _) as input) =
  let storage = load w input in
  let u = Lu.left_null_vector w in
  let eps = 1e-300 +. (epsilon_float *. Matrix.max_abs a) in
  match (dense_factor ~patch:eps a, dense_left_null_vector a) with
  | Some (d, _), Some v ->
      Array.for_all2 Float.equal storage d && Array.for_all2 Float.equal u v
  | _ -> false

let fresh f ((a, _, _) as input) = f (Lu.workspace a.Matrix.rows) input

let prop_lu_in_place_banded =
  QCheck2.Test.make
    ~name:"in-place band-bounded LU = dense elimination (banded)" ~count:300
    (gen_windowed_of
       QCheck2.Gen.(oneof [ gen_banded; gen_permuted_dominant ]))
    (fresh workspace_matches_dense)

let prop_lu_in_place_dense =
  QCheck2.Test.make ~name:"in-place band-bounded LU = dense elimination (dense)"
    ~count:100 (gen_windowed_of gen_matrix)
    (fresh workspace_matches_dense)

let prop_lu_in_place_patched =
  QCheck2.Test.make
    ~name:"in-place band-bounded LU = dense elimination (patched pivot)"
    ~count:300
    (gen_windowed_of
       QCheck2.Gen.(
         oneof
           [ gen_zero_column; gen_banded; gen_permuted_dominant; gen_matrix ]))
    (fresh null_vector_matches_dense)

(* two windowed matrices of one order; the first pivots *)
let prop_workspace_refill =
  QCheck2.Test.make
    ~name:"workspace refilled after pivoting = dense elimination" ~count:300
    QCheck2.Gen.(
      gen_windowed_of
        (oneof [ gen_banded; gen_permuted_dominant; gen_zero_column; gen_matrix ])
      >>= fun ((a, _, _) as second) ->
      let n = a.Matrix.rows in
      gen_windowed_of
        ( shuffle_a (Array.init n Fun.id) >|= fun perm ->
          Matrix.init n n (fun i j ->
              if j = perm.(i) then float_of_int (n + 1)
              else if abs (i - j) <= 1 then 0.5
              else 0.0) )
      >|= fun first -> (first, second))
    (fun (((a, _, _) as first), second) ->
      let w = Lu.workspace a.Matrix.rows in
      ignore (load w first : float array);
      ignore (Lu.left_null_vector w : Vec.t);
      workspace_matches_dense w second
      && null_vector_matches_dense w first
      && workspace_matches_dense w second)

(* ---- the row-update kernel and the unchecked loops ----

   Row_update is private to urs_linalg; test/dune compiles its source
   into the tests too (as Kernel here). Its four-lane kernel must equal
   the plain loop bit for bit at every length 0..13, which covers every
   remainder of the unrolling, on two arrays and within one array, with
   signed zeros, infinities and NaNs among the entries and the
   multiplier. *)

let gen_special =
  QCheck2.Gen.(
    frequency
      [
        (6, float_range (-4.0) 4.0);
        (1, return 0.0);
        (1, return (-0.0));
        (1, return infinity);
        (1, return neg_infinity);
        (1, return nan);
      ])

let plain_sub x xo a y yo len =
  for c = 0 to len - 1 do
    x.(xo + c) <- x.(xo + c) -. (a *. y.(yo + c))
  done

let all_bits x y = Array.for_all2 same_bits x y

let prop_row_update_two_arrays =
  QCheck2.Test.make ~name:"row-update kernel = plain loop (two arrays), bits"
    ~count:1000
    QCheck2.Gen.(
      int_range 0 13 >>= fun len ->
      quad (int_range 0 3) (int_range 0 3) gen_special
        (pair
           (array_size (return (len + 5)) gen_special)
           (array_size (return (len + 5)) gen_special))
      >|= fun q -> (len, q))
    (fun (len, (xo, yo, a, (x, y))) ->
      let x' = Array.copy x in
      Kernel.sub x xo a y yo len;
      plain_sub x' xo a y yo len;
      all_bits x x')

(* two ranges of one array, the destination before or after the
   source, apart or overlapping *)
let prop_row_update_one_array =
  QCheck2.Test.make ~name:"row-update kernel = plain loop (one array), bits"
    ~count:1000
    QCheck2.Gen.(
      int_range 0 13 >>= fun len ->
      triple bool (int_range 0 (len + 3)) gen_special >>= fun (after, gap, a) ->
      let size = (2 * len) + gap + 2 in
      array_size (return size) gen_special >|= fun z ->
      let xo, yo = if after then (len + gap, 1) else (1, len + gap) in
      (len, xo, yo, a, z))
    (fun (len, xo, yo, a, z) ->
      let z' = Array.copy z in
      Kernel.sub z xo a z yo len;
      plain_sub z' xo a z' yo len;
      all_bits z z')

(* Hessenberg.reduce before its row pass went through Row_update and
   its column pass was unrolled: the same operations, checked and one
   at a time *)
let reference_reduce a0 =
  let a = Matrix.copy a0 in
  let n = a.Matrix.rows in
  let d = a.Matrix.data in
  for m = 1 to n - 2 do
    let piv = ref m in
    let x = ref d.((m * n) + m - 1) in
    for j = m + 1 to n - 1 do
      if abs_float d.((j * n) + m - 1) > abs_float !x then begin
        x := d.((j * n) + m - 1);
        piv := j
      end
    done;
    if !piv <> m then begin
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
  for i = 2 to n - 1 do
    for j = 0 to i - 2 do
      d.((i * n) + j) <- 0.0
    done
  done;
  a

let prop_hessenberg_reduce_reference =
  QCheck2.Test.make ~name:"Hessenberg.reduce = the checked loops, bits"
    ~count:300
    QCheck2.Gen.(
      int_range 1 13 >>= fun n ->
      array_size
        (return (n * n))
        (frequency
           [
             (5, float_range (-1.0) 1.0); (1, return 0.0); (1, return (-0.0));
           ])
      >|= fun d -> Matrix.init n n (fun i j -> d.((i * n) + j)))
    (fun a ->
      all_bits (Hessenberg.reduce a).Matrix.data
        (reference_reduce a).Matrix.data)

(* Lu.factor_in_place on a workspace whose windows span every row is
   Lu.factor on a copy, bit for bit in everything a factorization
   answers, also for a workspace that held and factored another matrix
   first *)
let same_factorization n f g =
  let c = Vec.init n (fun i -> float_of_int (i + 1)) in
  same_bits (Lu.det_of_factor f) (Lu.det_of_factor g)
  && same_bits (Lu.pivot_condition f) (Lu.pivot_condition g)
  && all_bits (Lu.solve_transposed f c) (Lu.solve_transposed g c)
  && all_bits (Lu.solve_diagonal f c).Matrix.data
       (Lu.solve_diagonal g c).Matrix.data

let in_place_matches_copy w a =
  let n = a.Matrix.rows in
  let d = Lu.reset w ~lo:(Array.make n 0) ~hi:(Array.make n (n - 1)) in
  Array.blit a.Matrix.data 0 d 0 (n * n);
  match (Lu.factor_in_place w, Lu.factor a) with
  | Error `Singular, Error `Singular -> true
  | Ok f, Ok g -> same_factorization n f g
  | _ -> false

let prop_factor_in_place =
  QCheck2.Test.make ~name:"factor_in_place = factor on a copy, refilled, bits"
    ~count:300
    QCheck2.Gen.(
      gen_square >>= fun a ->
      let n = a.Matrix.rows in
      oneof
        [
          array_size (return (n * n)) (float_range (-1.0) 1.0)
          >|= (fun d -> Matrix.init n n (fun i j -> d.((i * n) + j)));
          shuffle_a (Array.init n Fun.id) >|= fun perm ->
          Matrix.init n n (fun i j ->
              if j = perm.(i) then float_of_int (n + 1) else 0.5);
        ]
      >|= fun first -> (first, a))
    (fun (first, second) ->
      let w = Lu.workspace first.Matrix.rows in
      in_place_matches_copy w first && in_place_matches_copy w second)

(* Matrix.t is a public record, so its data can disagree with its
   dimensions; every entry that reaches an unchecked loop refuses such a
   matrix before the loop runs *)
let test_unchecked_loops_guarded () =
  let raises name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let id3 = Lu.factor_exn (Matrix.identity 3) in
  List.iter
    (fun (label, len) ->
      let bad = { Matrix.rows = 3; cols = 3; data = Array.make len 1.0 } in
      let bad_h = { bad with data = Array.init len float_of_int } in
      raises ("Lu.factor, " ^ label) "Lu.factor: data length is not rows * cols"
        (fun () -> Lu.factor bad);
      raises
        ("Lu.factor_regularized, " ^ label)
        "Lu.factor: data length is not rows * cols"
        (fun () -> Lu.factor_regularized bad);
      raises
        ("Lu.solve_matrix, " ^ label)
        "Lu.solve_matrix: data length is not rows * cols"
        (fun () -> Lu.solve_matrix id3 bad);
      raises
        ("Hessenberg.reduce, " ^ label)
        "Hessenberg.reduce: data length is not rows * cols"
        (fun () -> Hessenberg.reduce bad);
      raises
        ("Qr_eig.eigenvalues_hessenberg, " ^ label)
        "Qr_eig: data length is not rows * cols"
        (fun () -> Qr_eig.eigenvalues_hessenberg bad_h))
    [ ("short data", 8); ("long data", 10) ];
  (* solve_diagonal takes its right-hand side as a vector *)
  raises "Lu.solve_diagonal" "Lu.solve_diagonal: dimension mismatch" (fun () ->
      Lu.solve_diagonal id3 [| 1.0; 2.0 |])

let prop_eigen_count =
  QCheck2.Test.make ~name:"eigenvalue count = dimension" ~count:40 gen_matrix
    (fun a -> Array.length (Eigen.eigenvalues a) = a.Matrix.rows)

let prop_transpose_mul =
  QCheck2.Test.make ~name:"(AB)ᵀ = BᵀAᵀ" ~count:60 gen_matrix (fun a ->
      let b = Matrix.identity a.Matrix.rows in
      let b = Matrix.add b a in
      Matrix.approx_equal ~tol:1e-9
        (Matrix.transpose (Matrix.mul a b))
        (Matrix.mul (Matrix.transpose b) (Matrix.transpose a)))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "urs_linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "basic ops" `Quick test_vec_basic;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "normalize" `Quick test_vec_normalize;
          Alcotest.test_case "dimension mismatch" `Quick test_vec_mismatch;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "2x2 product" `Quick test_matrix_mul;
          Alcotest.test_case "identity product" `Quick test_matrix_identity_mul;
          Alcotest.test_case "transpose involution" `Quick test_matrix_transpose;
          Alcotest.test_case "matrix-vector products" `Quick test_matrix_vec_mul;
          Alcotest.test_case "row sums and trace" `Quick test_matrix_row_sums;
          Alcotest.test_case "blit" `Quick test_matrix_blit;
        ] );
      ( "lu",
        [
          Alcotest.test_case "2x2 solve" `Quick test_lu_solve;
          Alcotest.test_case "random residuals" `Quick test_lu_random_residual;
          Alcotest.test_case "transposed solve" `Quick test_lu_transposed_solve;
          Alcotest.test_case "determinant" `Quick test_lu_det;
          Alcotest.test_case "determinant sign under pivoting" `Quick
            test_lu_det_permutation_sign;
          Alcotest.test_case "inverse" `Quick test_lu_inverse;
          Alcotest.test_case "log determinant" `Quick test_lu_log_det;
          Alcotest.test_case "singular detection" `Quick test_lu_singular_detection;
          Alcotest.test_case "left null vector, zero pivot" `Quick
            test_lu_left_null_vector_zero_pivot;
          Alcotest.test_case "left null vector, zero matrix" `Quick
            test_lu_left_null_vector_zero_matrix;
          Alcotest.test_case "workspace windows checked" `Quick
            test_lu_workspace_reset_checks;
          Alcotest.test_case "max_abs propagates NaN" `Quick test_max_abs_nan;
        ] );
      ( "eigen",
        [
          Alcotest.test_case "diagonal" `Quick test_eigen_diagonal;
          Alcotest.test_case "complex pair" `Quick test_eigen_complex_pair;
          Alcotest.test_case "trace and det identities" `Quick
            test_eigen_trace_det_identity;
          Alcotest.test_case "triangular 3x3" `Quick test_eigen_known_3x3;
          Alcotest.test_case "eigenvector residuals" `Quick
            test_eigenvector_residuals;
          Alcotest.test_case "hessenberg preserves spectrum" `Quick
            test_hessenberg_preserves_eigenvalues;
          Alcotest.test_case "balancing preserves spectrum" `Quick
            test_balance_preserves_eigenvalues;
        ] );
      ( "companion",
        [
          Alcotest.test_case "scalar, no roots inside" `Quick
            test_companion_scalar_quadratic;
          Alcotest.test_case "scalar, root inside" `Quick
            test_companion_scalar_root_inside;
          Alcotest.test_case "singular Q2" `Quick test_companion_singular_q2;
          Alcotest.test_case "roots satisfy det Q = 0" `Quick
            test_companion_eigen_satisfy_det;
        ] );
      ( "complex",
        [
          Alcotest.test_case "clu solve" `Quick test_clu_solve;
          Alcotest.test_case "null vector" `Quick test_clu_null_vector;
          Alcotest.test_case "left null vector" `Quick test_clu_left_null_vector;
          Alcotest.test_case "complex determinant" `Quick test_clu_det;
          Alcotest.test_case "cvec phase normalization" `Quick
            test_cvec_normalize_phase;
        ] );
      ( "complex extras",
        [
          Alcotest.test_case "cmatrix arithmetic" `Quick test_cmatrix_arithmetic;
          Alcotest.test_case "cx helpers" `Quick test_cx_helpers;
        ] );
      ( "eigen extras",
        [
          Alcotest.test_case "symmetric spectrum real" `Quick
            test_eigen_symmetric_real_spectrum;
          Alcotest.test_case "stochastic matrix has eigenvalue 1" `Quick
            test_eigen_stochastic_has_unit_eigenvalue;
        ] );
      ( "rootfind",
        [
          Alcotest.test_case "bisection" `Quick test_bisect;
          Alcotest.test_case "brent" `Quick test_brent;
          Alcotest.test_case "brent on linear" `Quick test_brent_linear;
          Alcotest.test_case "largest root" `Quick test_largest_root;
          Alcotest.test_case "no root" `Quick test_largest_root_none;
        ] );
      ( "observation",
        [
          Alcotest.test_case "bisect exhaustion payload" `Quick
            test_bisect_exhausted;
          Alcotest.test_case "brent exhaustion payload" `Quick
            test_brent_exhausted;
          Alcotest.test_case "brent observed, root unchanged" `Quick
            test_brent_observed_unchanged;
          Alcotest.test_case "eigenvalues bit-identical observed" `Quick
            test_eigen_observed_bit_identical;
          Alcotest.test_case "qr exhaustion payload" `Quick
            test_qr_exhaustion_payload;
          Alcotest.test_case "unchecked loops refuse malformed matrices"
            `Quick test_unchecked_loops_guarded;
          Alcotest.test_case "qr signed zeros pinned" `Quick
            test_qr_signed_zeros_pinned;
        ] );
      ( "properties",
        qc
          [
            prop_lu_roundtrip;
            prop_lu_row_bound_banded;
            prop_lu_row_bound_dense;
            prop_lu_transposed_solve;
            prop_solve_matrix_by_columns;
            prop_solve_diagonal;
            prop_lu_in_place_banded;
            prop_lu_in_place_dense;
            prop_lu_in_place_patched;
            prop_workspace_refill;
            prop_row_update_two_arrays;
            prop_row_update_one_array;
            prop_hessenberg_reduce_reference;
            prop_factor_in_place;
            prop_eigen_count;
            prop_transpose_mul;
          ] );
    ]
