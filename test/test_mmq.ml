(* Tests for the Markov-modulated queue machinery: environment
   enumeration (§3), QBD blocks, the spectral-expansion solver (§3.1),
   the geometric approximation (§3.2), the matrix-geometric
   cross-check, stability (eq. 11) and the M/M/c baseline. *)

open Urs_mmq
module H = Urs_prob.Hyperexponential
module M = Urs_linalg.Matrix
module V = Urs_linalg.Vec
module Cx = Urs_linalg.Cx

let check_float ?(tol = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let paper_operative = H.of_pairs [ (0.7246, 0.1663); (0.2754, 0.0091) ]

let exp_dist rate = H.create ~weights:[| 1.0 |] ~rates:[| rate |]

let paper_env ~servers =
  Environment.create ~servers ~operative:paper_operative
    ~inoperative:(exp_dist 25.0)

let solve_exn q =
  match Spectral.solve q with
  | Ok sol -> sol
  | Error e -> Alcotest.failf "spectral solve failed: %a" Spectral.pp_error e

(* ---- Environment ---- *)

let test_mode_count_formula () =
  (* s = C(N+n+m-1, n+m-1), eq. (12) *)
  List.iter
    (fun (servers, n, m, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "N=%d n=%d m=%d" servers n m)
        expected
        (Environment.count_modes ~servers ~op_phases:n ~inop_phases:m))
    [ (2, 2, 1, 6); (10, 2, 1, 66); (17, 2, 1, 171); (3, 2, 2, 20); (1, 1, 1, 2) ]

let test_mode_enumeration_matches_count () =
  let op = H.create ~weights:[| 0.4; 0.6 |] ~rates:[| 0.5; 0.125 |] in
  let inop = H.create ~weights:[| 0.7; 0.3 |] ~rates:[| 2.0; 1.0 |] in
  let env = Environment.create ~servers:4 ~operative:op ~inoperative:inop in
  Alcotest.(check int) "enumerated = formula"
    (Environment.count_modes ~servers:4 ~op_phases:2 ~inop_phases:2)
    (Environment.num_modes env)

let test_mode_ordering_matches_paper () =
  (* §3.1 worked example: N=2, n=2, m=1 — the six modes in the paper's
     order *)
  let env = paper_env ~servers:2 in
  let expect =
    [|
      ([| 0; 0 |], [| 2 |]);
      ([| 1; 0 |], [| 1 |]);
      ([| 0; 1 |], [| 1 |]);
      ([| 2; 0 |], [| 0 |]);
      ([| 1; 1 |], [| 0 |]);
      ([| 0; 2 |], [| 0 |]);
    |]
  in
  Array.iteri
    (fun i (x, y) ->
      let md = Environment.mode env i in
      if md.Environment.x <> x || md.Environment.y <> y then
        Alcotest.failf "mode %d differs from the paper's enumeration" i)
    expect

let test_mode_index_roundtrip () =
  let env = paper_env ~servers:5 in
  for i = 0 to Environment.num_modes env - 1 do
    let md = Environment.mode env i in
    Alcotest.(check int) "roundtrip" i (Environment.index_of_mode env md)
  done

let test_transition_matrix_matches_paper_example () =
  (* the explicit 6x6 matrix A printed in §3.1, with
     ξ1=0.5, ξ2=0.125, η=2, α1=0.4, α2=0.6 *)
  let xi1 = 0.5 and xi2 = 0.125 and eta = 2.0 and a1 = 0.4 and a2 = 0.6 in
  let op = H.create ~weights:[| a1; a2 |] ~rates:[| xi1; xi2 |] in
  let env =
    Environment.create ~servers:2 ~operative:op ~inoperative:(exp_dist eta)
  in
  let a = Environment.transition_matrix env in
  let expected =
    M.of_arrays
      [|
        [| 0.0; 2.0 *. eta *. a1; 2.0 *. eta *. a2; 0.0; 0.0; 0.0 |];
        [| xi1; 0.0; 0.0; eta *. a1; eta *. a2; 0.0 |];
        [| xi2; 0.0; 0.0; 0.0; eta *. a1; eta *. a2 |];
        [| 0.0; 2.0 *. xi1; 0.0; 0.0; 0.0; 0.0 |];
        [| 0.0; xi2; xi1; 0.0; 0.0; 0.0 |];
        [| 0.0; 0.0; 2.0 *. xi2; 0.0; 0.0; 0.0 |];
      |]
  in
  Alcotest.(check bool) "A matches the paper" true (M.approx_equal a expected)

let test_availability () =
  let env = paper_env ~servers:10 in
  (* mean op 34.62, mean inop 0.04: avail = 34.62/34.66 *)
  check_float ~tol:1e-4 "availability" (34.6209 /. 34.6609)
    (Environment.availability env);
  check_float ~tol:1e-2 "mean operative" 9.98845
    (Environment.mean_operative_servers env)

let test_stationary_mode_probabilities_sum_to_one () =
  let env = paper_env ~servers:6 in
  let total = ref 0.0 in
  for i = 0 to Environment.num_modes env - 1 do
    let p = Environment.stationary_mode_probability env i in
    if p < 0.0 then Alcotest.fail "negative mode probability";
    total := !total +. p
  done;
  check_float ~tol:1e-12 "sum to 1" 1.0 !total

let test_stationary_matches_environment_balance () =
  (* the multinomial stationary vector must satisfy πQ_env = 0 where
     Q_env = A - D^A *)
  let env = paper_env ~servers:4 in
  let s = Environment.num_modes env in
  let a = Environment.transition_matrix env in
  let d = M.diagonal (M.row_sums a) in
  let gen = M.sub a d in
  let pi =
    Array.init s (fun i -> Environment.stationary_mode_probability env i)
  in
  let r = M.vec_mul pi gen in
  if V.norm_inf r > 1e-10 then
    Alcotest.failf "stationary residual %g" (V.norm_inf r)

(* ---- Stability (eq. 11) ---- *)

let test_stability_threshold () =
  let env = paper_env ~servers:10 in
  let cap = Environment.mean_operative_servers env in
  let v = Stability.check ~env ~lambda:(cap *. 0.99) ~mu:1.0 in
  Alcotest.(check bool) "stable below capacity" true v.Stability.stable;
  let v = Stability.check ~env ~lambda:(cap *. 1.01) ~mu:1.0 in
  Alcotest.(check bool) "unstable above capacity" false v.Stability.stable;
  check_float ~tol:1e-9 "max rate" cap (Stability.max_arrival_rate ~env ~mu:1.0)

(* ---- QBD blocks ---- *)

let test_qbd_blocks () =
  let env = paper_env ~servers:3 in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.5 in
  let s = Qbd.s q in
  (* B = λI *)
  Alcotest.(check bool) "B = λI" true
    (M.approx_equal (Qbd.b q) (M.scalar s 2.0));
  (* C_0 = 0 *)
  Alcotest.(check bool) "C_0 = 0" true (M.approx_equal (Qbd.c q 0) (M.create s s));
  (* C_j diagonal with min(ops, j)·µ *)
  let c2 = Qbd.c q 2 in
  for i = 0 to s - 1 do
    let expected =
      float_of_int (min (Environment.operative_servers env i) 2) *. 1.5
    in
    check_float "C_2 diag" expected (M.get c2 i i)
  done;
  (* c_diag agrees with c *)
  let cd = Qbd.c_diag q 5 in
  let cm = Qbd.c q 5 in
  for i = 0 to s - 1 do
    check_float "c_diag" (M.get cm i i) cd.(i)
  done;
  (* Q(1) must be singular: it is the environment generator *)
  let d = Urs_linalg.Clu.det (Qbd.char_poly_at q Cx.one) in
  if Cx.modulus d > 1e-8 then Alcotest.failf "det Q(1) = %g" (Cx.modulus d)

let test_transition_block_nonsingular () =
  let env = paper_env ~servers:4 in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  for j = 0 to 5 do
    match Urs_linalg.Lu.factor (Qbd.transition_block q j) with
    | Ok _ -> ()
    | Error `Singular -> Alcotest.failf "T_%d singular" j
  done

(* ---- Spectral expansion ---- *)

let test_spectral_matches_mmc_when_reliable () =
  (* nearly-always-operative servers: must reproduce Erlang C *)
  let op = exp_dist 1e-9 and inop = exp_dist 1e3 in
  let env = Environment.create ~servers:4 ~operative:op ~inoperative:inop in
  let q = Qbd.create ~env ~lambda:3.0 ~mu:1.0 in
  let sol = solve_exn q in
  let l_exact = Mmc.mean_queue_length ~servers:4 ~lambda:3.0 ~mu:1.0 in
  check_float ~tol:1e-5 "L matches M/M/4" l_exact (Spectral.mean_queue_length sol)

let test_spectral_mm1_with_breakdowns_closed_form () =
  (* N=1, exponential op/inop: the M/M/1 queue in a random environment.
     Verify against the matrix-geometric solution and basic identities. *)
  let env =
    Environment.create ~servers:1 ~operative:(exp_dist 0.1)
      ~inoperative:(exp_dist 1.0)
  in
  let q = Qbd.create ~env ~lambda:0.5 ~mu:1.0 in
  let sol = solve_exn q in
  (match Matrix_geometric.solve q with
  | Ok mg ->
      check_float ~tol:1e-8 "spectral = matrix-geometric"
        (Matrix_geometric.mean_queue_length mg)
        (Spectral.mean_queue_length sol)
  | Error e -> Alcotest.failf "mg failed: %a" Matrix_geometric.pp_error e);
  check_float ~tol:1e-10 "busy = λ/µ" 0.5 (Spectral.mean_busy_servers sol)

let test_spectral_waiting_metrics () =
  (* near-reliable: waiting time must match Erlang-C's Wq *)
  let op = exp_dist 1e-9 and inop = exp_dist 1e3 in
  let env = Environment.create ~servers:4 ~operative:op ~inoperative:inop in
  let q = Qbd.create ~env ~lambda:3.0 ~mu:1.0 in
  let sol = solve_exn q in
  check_float ~tol:1e-5 "Wq matches Erlang C"
    (Mmc.mean_waiting_time ~servers:4 ~lambda:3.0 ~mu:1.0)
    (Spectral.mean_waiting_time sol);
  check_float ~tol:1e-10 "Lq = L - λ/µ"
    (Spectral.mean_queue_length sol -. 3.0)
    (Spectral.mean_waiting_jobs sol)

let test_spectral_eigenvalue_count_and_range () =
  let env = paper_env ~servers:6 in
  let q = Qbd.create ~env ~lambda:4.0 ~mu:1.0 in
  let sol = solve_exn q in
  let zs = Spectral.eigenvalues sol in
  Alcotest.(check int) "s eigenvalues" (Qbd.s q) (Array.length zs);
  Array.iter
    (fun z ->
      if Cx.modulus z >= 1.0 then Alcotest.fail "eigenvalue outside unit disk")
    zs;
  let zd = Spectral.dominant_eigenvalue sol in
  Alcotest.(check bool) "dominant real positive" true (zd > 0.0 && zd < 1.0)

let test_spectral_probabilities_normalize () =
  let env = paper_env ~servers:4 in
  let q = Qbd.create ~env ~lambda:3.0 ~mu:1.0 in
  let sol = solve_exn q in
  (* level probabilities sum to 1 (tail via closed form) *)
  let head = ref 0.0 in
  for j = 0 to 3 do
    head := !head +. Spectral.level_probability sol j
  done;
  check_float ~tol:1e-10 "head + tail = 1" 1.0 (!head +. Spectral.tail_probability sol 4);
  (* tail is decreasing *)
  let t1 = Spectral.tail_probability sol 10 in
  let t2 = Spectral.tail_probability sol 20 in
  Alcotest.(check bool) "tail decreasing" true (t2 < t1);
  (* L = Σ j p_j matches the closed form, summed far into the tail *)
  let l_direct = ref 0.0 in
  for j = 1 to 4000 do
    l_direct := !l_direct +. (float_of_int j *. Spectral.level_probability sol j)
  done;
  check_float ~tol:1e-6 "L closed form vs direct sum" !l_direct
    (Spectral.mean_queue_length sol)

let test_spectral_mode_marginals_match_multinomial () =
  let env = paper_env ~servers:5 in
  let q = Qbd.create ~env ~lambda:4.0 ~mu:1.0 in
  let sol = solve_exn q in
  let mm = Spectral.mode_marginals sol in
  for i = 0 to Qbd.s q - 1 do
    check_float ~tol:1e-9 "marginal"
      (Environment.stationary_mode_probability env i)
      mm.(i)
  done

let test_spectral_busy_servers_identity () =
  (* in steady state the expected number of busy servers is λ/µ *)
  let env = paper_env ~servers:8 in
  let q = Qbd.create ~env ~lambda:6.0 ~mu:1.0 in
  let sol = solve_exn q in
  check_float ~tol:1e-8 "busy = λ/µ" 6.0 (Spectral.mean_busy_servers sol)

let test_spectral_balance_residual () =
  let env = paper_env ~servers:5 in
  let q = Qbd.create ~env ~lambda:4.0 ~mu:1.0 in
  let sol = solve_exn q in
  if Spectral.residual sol > 1e-10 then
    Alcotest.failf "balance residual %g" (Spectral.residual sol)

let test_spectral_unstable_detected () =
  let env = paper_env ~servers:2 in
  let q = Qbd.create ~env ~lambda:5.0 ~mu:1.0 in
  match Spectral.solve q with
  | Error (Spectral.Unstable _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Spectral.pp_error e
  | Ok _ -> Alcotest.fail "expected instability"

let test_spectral_little_law () =
  let env = paper_env ~servers:5 in
  let q = Qbd.create ~env ~lambda:4.0 ~mu:1.0 in
  let sol = solve_exn q in
  check_float ~tol:1e-12 "W = L/λ"
    (Spectral.mean_queue_length sol /. 4.0)
    (Spectral.mean_response_time sol)

let test_spectral_hyperexponential_repairs () =
  (* m = 2 phases on the inoperative side as well *)
  let inop = H.of_pairs [ (0.9303, 25.0043); (0.0697, 1.6346) ] in
  let env =
    Environment.create ~servers:3 ~operative:paper_operative ~inoperative:inop
  in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  let sol = solve_exn q in
  (match Matrix_geometric.solve q with
  | Ok mg ->
      check_float ~tol:1e-7 "n=2,m=2 spectral = mg"
        (Matrix_geometric.mean_queue_length mg)
        (Spectral.mean_queue_length sol)
  | Error e -> Alcotest.failf "mg failed: %a" Matrix_geometric.pp_error e);
  check_float ~tol:1e-8 "busy" 2.0 (Spectral.mean_busy_servers sol)

let test_spectral_three_phase_operative () =
  (* n = 3 phases exercises the general enumeration *)
  let op = H.of_pairs [ (0.5, 0.5); (0.3, 0.05); (0.2, 0.01) ] in
  let env =
    Environment.create ~servers:3 ~operative:op ~inoperative:(exp_dist 10.0)
  in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  let sol = solve_exn q in
  (match Matrix_geometric.solve q with
  | Ok mg ->
      check_float ~tol:1e-7 "n=3 spectral = mg"
        (Matrix_geometric.mean_queue_length mg)
        (Spectral.mean_queue_length sol)
  | Error e -> Alcotest.failf "mg failed: %a" Matrix_geometric.pp_error e);
  if Spectral.residual sol > 1e-9 then Alcotest.fail "residual too large"

let test_spectral_queue_quantiles () =
  let env = paper_env ~servers:4 in
  let q = Qbd.create ~env ~lambda:3.0 ~mu:1.0 in
  let sol = solve_exn q in
  List.iter
    (fun p ->
      let j = Spectral.queue_length_quantile sol p in
      (* defining property of the quantile *)
      Alcotest.(check bool) "P(<=j) >= p" true
        (1.0 -. Spectral.tail_probability sol (j + 1) >= p -. 1e-12);
      if j > 0 then
        Alcotest.(check bool) "P(<=j-1) < p" true
          (1.0 -. Spectral.tail_probability sol j < p))
    [ 0.5; 0.9; 0.99 ]

let test_geometric_queue_quantiles () =
  let env = paper_env ~servers:4 in
  let q = Qbd.create ~env ~lambda:3.0 ~mu:1.0 in
  let geo =
    match Geometric.solve q with
    | Ok g -> g
    | Error e -> Alcotest.failf "geometric solve failed: %a" Geometric.pp_error e
  in
  List.iter
    (fun p ->
      let j = Geometric.queue_length_quantile geo p in
      Alcotest.(check bool) "P(<=j) >= p" true
        (1.0 -. Geometric.tail_probability geo (j + 1) >= p -. 1e-12);
      if j > 0 then
        Alcotest.(check bool) "P(<=j-1) < p" true
          (1.0 -. Geometric.tail_probability geo j < p))
    [ 0.5; 0.9; 0.999 ]

let test_spectral_real_eigenvectors_match_complex () =
  (* the paper model's spectrum is real, so every left eigenvector comes
     from the real LU; it must be the one the complex LU finds. One
     workspace serves every eigenvalue, as in the solver, so each Q(z_k)
     goes in over the windows the previous factorization left. *)
  List.iter
    (fun servers ->
      let q =
        Qbd.create ~env:(paper_env ~servers)
          ~lambda:(0.8 *. float_of_int servers) ~mu:1.0
      in
      let work = Urs_linalg.Lu.workspace (Qbd.s q) in
      Array.iter
        (fun z ->
          if Cx.im z <> 0.0 then
            Alcotest.failf "N=%d: complex eigenvalue %a" servers Cx.pp z;
          Qbd.char_poly_real q (Cx.re z) work;
          let real =
            Urs_linalg.Cvec.normalize
              (Urs_linalg.Cvec.of_real (Urs_linalg.Lu.left_null_vector work))
          in
          let complex =
            Urs_linalg.Clu.left_null_vector (Qbd.char_poly_at q z)
          in
          if not (Urs_linalg.Cvec.approx_equal ~tol:1e-10 real complex) then
            Alcotest.failf "N=%d z=%g: real and complex eigenvectors differ"
              servers (Cx.re z))
        (Spectral.eigenvalues (solve_exn q)))
    [ 5; 10 ]

(* Answers pinned bit for bit (%h). The solvers skip arithmetic on
   exact zeros (the LU's bandwidth and row bounds, the row-wise and
   diagonal solves, the one-pass boundary assembly, the in-place Q(z)
   factorizations); every skipped term subtracts a zero, so none of
   these may move. *)
let test_pinned_answers () =
  let bits name expected actual =
    let b = Int64.bits_of_float in
    if not (Int64.equal (b expected) (b actual)) then
      Alcotest.failf "%s: expected %h, got %h" name expected actual
  in
  let pin label q ~l ~residual ~cond ~z ~geo_z ~geo_l =
    let sol = solve_exn q in
    bits (label ^ " L") l (Spectral.mean_queue_length sol);
    bits (label ^ " residual") residual (Spectral.residual sol);
    bits (label ^ " boundary_condition") cond (Spectral.boundary_condition sol);
    bits (label ^ " dominant z") z (Spectral.dominant_eigenvalue sol);
    match Geometric.solve q with
    | Error e -> Alcotest.failf "%s: %a" label Geometric.pp_error e
    | Ok g ->
        bits (label ^ " geometric z") geo_z (Geometric.dominant_eigenvalue g);
        bits (label ^ " geometric L") geo_l (Geometric.mean_queue_length g)
  in
  let paper servers =
    Qbd.create ~env:(paper_env ~servers)
      ~lambda:(0.8 *. float_of_int servers) ~mu:1.0
  in
  pin "paper N=5" (paper 5) ~l:0x1.8f438c15114ep+2 ~residual:0x1.ep-51
    ~cond:0x1.ff98911bf1317p+4 ~z:0x1.9a157f3806fe4p-1
    ~geo_z:0x1.9a157f3806f41p-1 ~geo_l:0x1.0185043e000d6p+2;
  pin "paper N=12" (paper 12) ~l:0x1.630765a01d238p+3 ~residual:0x1.57p-52
    ~cond:0x1.ff593becefccep+4 ~z:0x1.9a157f3806feap-1
    ~geo_z:0x1.9a157f38070c6p-1 ~geo_l:0x1.0185043e005a1p+2;
  let erlang3 =
    Environment.create_ph ~servers:3
      ~operative:
        (Urs_prob.Phase_type.of_erlang (Urs_prob.Erlang.create ~k:3 ~rate:0.3))
      ~inoperative:(Urs_prob.Phase_type.of_hyperexponential (exp_dist 2.0))
      ()
  in
  pin "erlang-3 N=3"
    (Qbd.create ~env:erlang3 ~lambda:2.0 ~mu:1.0)
    ~l:0x1.9d9334781377ep+1 ~residual:0x1.d8p-52 ~cond:0x1.62c4efbf9ef3bp+1
    ~z:0x1.6832419510b21p-1 ~geo_z:0x1.6832419510c06p-1
    ~geo_l:0x1.2fb7290ba0ecp+1;
  (* the paper's fitted H2 repair periods *)
  let h2_repairs =
    Environment.create ~servers:6 ~operative:paper_operative
      ~inoperative:(H.of_pairs [ (0.9303, 25.0043); (0.0697, 1.6346) ])
  in
  pin "H2 repairs N=6"
    (Qbd.create ~env:h2_repairs ~lambda:4.5 ~mu:1.0)
    ~l:0x1.729fd96c9a6f8p+2 ~residual:0x1.7450cd8p-50
    ~cond:0x1.1028a5692af5bp+5 ~z:0x1.81035c61a8924p-1
    ~geo_z:0x1.81035c61a8965p-1 ~geo_l:0x1.8415b86c885a4p+1

(* The eigenvalue stage pinned bit for bit: Osborne balancing and the
   Francis QR iteration on the companion matrices of the paper model at
   N = 5 (42 real eigenvalues) and of Erlang-3 operative periods at
   N = 3 (40 eigenvalues, complex pairs among them). Each digest is the
   MD5 of the values' %h renderings in output order, so a change to any
   bit, zero signs included, or to the order fails; a few values are
   spelt out for the reader. *)
let digest_floats xs =
  Digest.to_hex
    (Digest.string (String.concat ";" (List.map (Printf.sprintf "%h") xs)))

let erlang3_env () =
  Environment.create_ph ~servers:3
    ~operative:
      (Urs_prob.Phase_type.of_erlang (Urs_prob.Erlang.create ~k:3 ~rate:0.3))
    ~inoperative:(Urs_prob.Phase_type.of_hyperexponential (exp_dist 2.0))
    ()

let pinned_companions () =
  [
    ( "paper N=5",
      Qbd.create ~env:(paper_env ~servers:5) ~lambda:4.0 ~mu:1.0,
      "3451a81c64cf3f3f6fb71ecc61df8f81",
      "1a9e0150cc46b0d6a3f5dd053853ef31",
      [ (1, 0x1.0348133d3b228p+5, 0.0); (22, 0x1.ffffffffffffap-1, 0.0) ] );
    ( "erlang-3 N=3",
      Qbd.create ~env:(erlang3_env ()) ~lambda:2.0 ~mu:1.0,
      "d3cedf68272ca596934ca0de2e1490c0",
      "f527379f431613cd7f98a4f328a5d014",
      [
        (2, 0x1.d15c82c8f4398p+1, -0x1.850e83ad5c44cp-3);
        (3, 0x1.d15c82c8f4398p+1, 0x1.850e83ad5c44cp-3);
        (22, 0x1.1facce01f2382p-3, -0x1.be1887e3da33bp-9);
      ] );
  ]

let test_pinned_eigenvalue_stage () =
  let bits name expected actual =
    let b = Int64.bits_of_float in
    if not (Int64.equal (b expected) (b actual)) then
      Alcotest.failf "%s: expected %h, got %h" name expected actual
  in
  List.iter
    (fun (label, q, eig_digest, balance_digest, spelt) ->
      let m =
        Urs_linalg.Companion.reversed ~q0:(Qbd.q0 q) ~q1:(Qbd.q1 q)
          ~q2:(Qbd.q2 q)
      in
      let b = Urs_linalg.Hessenberg.balance m in
      Alcotest.(check string)
        (label ^ " balanced companion") balance_digest
        (digest_floats (Array.to_list b.M.data));
      let ev =
        Urs_linalg.Qr_eig.eigenvalues_hessenberg
          (Urs_linalg.Hessenberg.reduce b)
      in
      List.iter
        (fun (i, re, im) ->
          bits (Printf.sprintf "%s eigenvalue %d re" label i) re (Cx.re ev.(i));
          bits (Printf.sprintf "%s eigenvalue %d im" label i) im (Cx.im ev.(i)))
        spelt;
      Alcotest.(check string)
        (label ^ " eigenvalues") eig_digest
        (digest_floats
           (List.concat_map (fun z -> [ Cx.re z; Cx.im z ]) (Array.to_list ev))))
    (pinned_companions ())

(* The exact and approximate answers pinned on a broad model set: the
   paper model at N = 2..10 and four loads (0.99 of the stability limit
   among them), Erlang-3 operative periods (complex eigenvalues) and the
   paper's H2 repairs at N = 2..6 and three loads each, 66 models. The
   digest is the MD5 of the %h renderings of each model's spectral L,
   residual, boundary condition, dominant z and max eigen residual, and
   geometric z and L, in that order. *)
let broad_models () =
  let at label env load =
    ( Printf.sprintf "%s load=%g" label load,
      Qbd.create ~env
        ~lambda:(load *. Stability.max_arrival_rate ~env ~mu:1.0)
        ~mu:1.0 )
  in
  let erlang3 servers =
    Environment.create_ph ~servers
      ~operative:
        (Urs_prob.Phase_type.of_erlang (Urs_prob.Erlang.create ~k:3 ~rate:0.3))
      ~inoperative:(Urs_prob.Phase_type.of_hyperexponential (exp_dist 2.0))
      ()
  in
  let h2 servers =
    Environment.create ~servers ~operative:paper_operative
      ~inoperative:(H.of_pairs [ (0.9303, 25.0043); (0.0697, 1.6346) ])
  in
  let grid name env ns loads =
    List.concat_map
      (fun n ->
        List.map
          (fun load -> at (Printf.sprintf "%s N=%d" name n) (env n) load)
          loads)
      ns
  in
  grid "paper"
    (fun servers -> paper_env ~servers)
    [ 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    [ 0.05; 0.6; 0.9; 0.99 ]
  @ grid "erlang-3" erlang3 [ 2; 3; 4; 5; 6 ] [ 0.3; 0.6; 0.9 ]
  @ grid "H2 repairs" h2 [ 2; 3; 4; 5; 6 ] [ 0.3; 0.6; 0.9 ]

let test_pinned_broad () =
  let models = broad_models () in
  Alcotest.(check int) "model count" 66 (List.length models);
  let values =
    List.concat_map
      (fun (label, q) ->
        let sol = solve_exn q in
        let g =
          match Geometric.solve q with
          | Ok g -> g
          | Error e -> Alcotest.failf "%s: %a" label Geometric.pp_error e
        in
        [
          Spectral.mean_queue_length sol;
          Spectral.residual sol;
          Spectral.boundary_condition sol;
          Spectral.dominant_eigenvalue sol;
          Spectral.max_eigen_residual sol;
          Geometric.dominant_eigenvalue g;
          Geometric.mean_queue_length g;
        ])
      models
  in
  Alcotest.(check string)
    "answers on 66 models" "f0ef7d02b6945459a34c8c687ca25bf2"
    (digest_floats values)

(* ---- phase-type extension (beyond the paper) ---- *)

let test_ph_env_consistent_with_h2_env () =
  (* building the environment via the general PH path must give exactly
     the paper's transition matrix for hyperexponential laws *)
  let op = H.create ~weights:[| 0.4; 0.6 |] ~rates:[| 0.5; 0.125 |] in
  let inop = exp_dist 2.0 in
  let via_h2 = Environment.create ~servers:2 ~operative:op ~inoperative:inop in
  let via_ph =
    Environment.create_ph ~servers:2
      ~operative:(Urs_prob.Phase_type.of_hyperexponential op)
      ~inoperative:(Urs_prob.Phase_type.of_hyperexponential inop)
      ()
  in
  Alcotest.(check bool) "same A" true
    (M.approx_equal
       (Environment.transition_matrix via_h2)
       (Environment.transition_matrix via_ph))

let test_ph_env_erlang_vs_truncated () =
  (* Erlang-2 operative periods: solve exactly via the PH environment
     and check against the brute-force oracle *)
  let op = Urs_prob.Phase_type.of_erlang (Urs_prob.Erlang.create ~k:2 ~rate:0.1) in
  let inop =
    Urs_prob.Phase_type.of_hyperexponential (exp_dist 2.0)
  in
  let env = Environment.create_ph ~servers:3 ~operative:op ~inoperative:inop () in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  let sol = solve_exn q in
  (match Truncated.solve ~levels:250 q with
  | Error e -> Alcotest.failf "truncated failed: %a" Truncated.pp_error e
  | Ok t ->
      check_float ~tol:1e-7 "erlang-op L" (Truncated.mean_queue_length t)
        (Spectral.mean_queue_length sol));
  check_float ~tol:1e-8 "busy = λ/µ" 2.0 (Spectral.mean_busy_servers sol)

let test_ph_env_coxian_marginals () =
  (* a genuine Coxian (within-period phase transitions): the mode
     marginals must still follow the occupation-time multinomial *)
  let cox =
    Urs_prob.Phase_type.create ~alpha:[| 1.0; 0.0 |]
      ~t_matrix:(M.of_arrays [| [| -0.2; 0.15 |]; [| 0.0; -0.02 |] |])
  in
  let inop = Urs_prob.Phase_type.of_hyperexponential (exp_dist 2.0) in
  let env = Environment.create_ph ~servers:3 ~operative:cox ~inoperative:inop () in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  let sol = solve_exn q in
  let mm = Spectral.mode_marginals sol in
  for i = 0 to Qbd.s q - 1 do
    check_float ~tol:1e-9 "marginal"
      (Environment.stationary_mode_probability env i)
      mm.(i)
  done

let test_ph_env_erlang3_complex_spectrum () =
  (* Erlang-3 operative periods give complex conjugate eigenvalue pairs,
     which keep the complex-LU path and the conjugate-pair shortcut *)
  let op =
    Urs_prob.Phase_type.of_erlang (Urs_prob.Erlang.create ~k:3 ~rate:0.3)
  in
  let inop = Urs_prob.Phase_type.of_hyperexponential (exp_dist 2.0) in
  let env =
    Environment.create_ph ~servers:3 ~operative:op ~inoperative:inop ()
  in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  Alcotest.(check int) "modes" 20 (Qbd.s q);
  let shortcuts () =
    Option.value ~default:0.0
      (Urs_obs.Metrics.value "urs_spectral_conjugate_shortcuts_total")
  in
  let before = shortcuts () in
  let sol = solve_exn q in
  let complex =
    Array.fold_left
      (fun n z -> if Cx.im z <> 0.0 then n + 1 else n)
      0 (Spectral.eigenvalues sol)
  in
  Alcotest.(check int) "complex eigenvalues" 14 complex;
  check_float ~tol:0.0 "one shortcut per conjugate pair" 7.0
    (shortcuts () -. before);
  let resid = Spectral.residual sol in
  if resid > 1e-10 then Alcotest.failf "balance residual %g" resid;
  match Matrix_geometric.solve q with
  | Error e -> Alcotest.failf "mg failed: %a" Matrix_geometric.pp_error e
  | Ok mg ->
      check_float ~tol:1e-8 "L vs matrix-geometric"
        (Matrix_geometric.mean_queue_length mg)
        (Spectral.mean_queue_length sol)

let test_ph_env_rejects_defect () =
  let defective =
    Urs_prob.Phase_type.create ~alpha:[| 0.5 |]
      ~t_matrix:(M.of_arrays [| [| -1.0 |] |])
  in
  let inop = Urs_prob.Phase_type.of_hyperexponential (exp_dist 2.0) in
  try
    ignore
      (Environment.create_ph ~servers:2 ~operative:defective ~inoperative:inop
         ());
    Alcotest.fail "defective initial distribution must be rejected"
  with Invalid_argument _ -> ()

(* ---- transient analysis (beyond the paper) ---- *)

let transient_exn q =
  match Transient.create ~levels:150 q with
  | Ok t -> t
  | Error e -> Alcotest.failf "transient failed: %a" Transient.pp_error e

let test_transient_relaxes_to_steady_state () =
  let env = paper_env ~servers:3 in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  let sol = solve_exn q in
  let t = transient_exn q in
  let init = Transient.empty_all_operative t in
  check_float ~tol:1e-12 "L(0) = 0" 0.0
    (Transient.mean_jobs_at t ~initial:init ~time:0.0);
  check_float ~tol:1e-4 "L(∞) = steady state"
    (Spectral.mean_queue_length sol)
    (Transient.mean_jobs_at t ~initial:init ~time:400.0);
  (* from an empty start the mean queue grows towards the limit *)
  let l1 = Transient.mean_jobs_at t ~initial:init ~time:1.0 in
  let l5 = Transient.mean_jobs_at t ~initial:init ~time:5.0 in
  let l50 = Transient.mean_jobs_at t ~initial:init ~time:50.0 in
  Alcotest.(check bool) "monotone build-up" true (l1 < l5 && l5 < l50)

let test_transient_distribution_normalized () =
  let env = paper_env ~servers:2 in
  let q = Qbd.create ~env ~lambda:1.2 ~mu:1.0 in
  let t = transient_exn q in
  let init = Transient.empty_all_operative t in
  List.iter
    (fun time ->
      let pi = Transient.distribution_at t ~initial:init ~time in
      let total = Array.fold_left ( +. ) 0.0 pi in
      check_float ~tol:1e-9 "sums to 1" 1.0 total;
      Array.iter
        (fun p -> if p < -1e-12 then Alcotest.fail "negative probability")
        pi)
    [ 0.0; 0.5; 3.0; 25.0 ]

let test_transient_operative_relaxation () =
  (* servers start all operative and relax to N·availability *)
  let env = paper_env ~servers:3 in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  let t = transient_exn q in
  let init = Transient.empty_all_operative t in
  check_float ~tol:1e-9 "all operative at 0" 3.0
    (Transient.mean_operative_at t ~initial:init ~time:0.0);
  check_float ~tol:1e-3 "relaxes to N·availability"
    (Environment.mean_operative_servers env)
    (Transient.mean_operative_at t ~initial:init ~time:300.0)

let test_transient_unstable_queue_grows () =
  (* transient analysis applies to unstable queues too: from empty the
     queue keeps growing *)
  let env = paper_env ~servers:2 in
  let q = Qbd.create ~env ~lambda:5.0 ~mu:1.0 in
  let t = transient_exn q in
  let init = Transient.empty_all_operative t in
  let l10 = Transient.mean_jobs_at t ~initial:init ~time:10.0 in
  let l30 = Transient.mean_jobs_at t ~initial:init ~time:30.0 in
  Alcotest.(check bool) "unbounded growth" true (l30 > l10 +. 20.0)

(* ---- limited repair crews (beyond the paper) ---- *)

let crews_env ~crews =
  Environment.create_ph ~repair_crews:crews ~servers:6
    ~operative:
      (Urs_prob.Phase_type.of_hyperexponential (exp_dist 0.1))
    ~inoperative:
      (Urs_prob.Phase_type.of_hyperexponential (exp_dist 0.5))
    ()

let test_crews_match_oracle () =
  List.iter
    (fun crews ->
      let env = crews_env ~crews in
      let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
      let sol = solve_exn q in
      match Truncated.solve ~levels:300 q with
      | Error e -> Alcotest.failf "oracle failed: %a" Truncated.pp_error e
      | Ok t ->
          check_float ~tol:1e-7
            (Printf.sprintf "crews=%d" crews)
            (Truncated.mean_queue_length t)
            (Spectral.mean_queue_length sol))
    [ 1; 2; 4 ]

let test_crews_degrade_capacity () =
  (* fewer crews -> lower effective capacity -> larger queues *)
  let capacity crews = Environment.mean_operative_servers (crews_env ~crews) in
  Alcotest.(check bool) "capacity decreasing" true
    (capacity 1 < capacity 2 && capacity 2 < capacity 6);
  (* with full crews the capacity matches the independent-server formula *)
  check_float ~tol:1e-9 "unlimited = closed form" 5.0 (capacity 6);
  let l crews =
    let q = Qbd.create ~env:(crews_env ~crews) ~lambda:2.0 ~mu:1.0 in
    Spectral.mean_queue_length (solve_exn q)
  in
  Alcotest.(check bool) "L increasing as crews shrink" true
    (l 1 > l 2 && l 2 > l 6)

let test_crews_stationary_solve_consistent () =
  (* with unlimited crews the generator-solved stationary distribution
     must coincide with the multinomial closed form *)
  let env = crews_env ~crews:6 in
  let limited = crews_env ~crews:5 in
  (* limited: probabilities still sum to 1 and are nonnegative *)
  let total = ref 0.0 in
  for i = 0 to Environment.num_modes limited - 1 do
    let p = Environment.stationary_mode_probability limited i in
    if p < 0.0 then Alcotest.fail "negative stationary probability";
    total := !total +. p
  done;
  check_float ~tol:1e-9 "limited sums to 1" 1.0 !total;
  ignore env

(* ---- geometric approximation ---- *)

let geo_exn q =
  match Geometric.solve q with
  | Ok g -> g
  | Error e -> Alcotest.failf "geometric solve failed: %a" Geometric.pp_error e

let test_geometric_dominant_matches_spectral () =
  let env = paper_env ~servers:6 in
  let q = Qbd.create ~env ~lambda:5.0 ~mu:1.0 in
  let sol = solve_exn q in
  let geo = geo_exn q in
  check_float ~tol:1e-8 "z_s agreement"
    (Spectral.dominant_eigenvalue sol)
    (Geometric.dominant_eigenvalue geo)

let test_geometric_accuracy_improves_with_load () =
  (* the paper's Figure 8 claim: relative error shrinks as load → 1 *)
  let env = paper_env ~servers:10 in
  let rel_err lambda =
    let q = Qbd.create ~env ~lambda ~mu:1.0 in
    let exact = Spectral.mean_queue_length (solve_exn q) in
    let approx = Geometric.mean_queue_length (geo_exn q) in
    abs_float (approx -. exact) /. exact
  in
  let cap = Environment.mean_operative_servers env in
  let e_low = rel_err (0.90 *. cap) in
  let e_high = rel_err (0.99 *. cap) in
  Alcotest.(check bool)
    (Printf.sprintf "error shrinks: %.4f -> %.4f" e_low e_high)
    true (e_high < e_low)

let test_geometric_mode_weights () =
  let env = paper_env ~servers:4 in
  let q = Qbd.create ~env ~lambda:3.5 ~mu:1.0 in
  let geo = geo_exn q in
  let w = Geometric.mode_weights geo in
  check_float ~tol:1e-10 "weights sum to 1" 1.0 (V.sum w);
  (* geometric level probabilities normalize *)
  let total = ref 0.0 in
  for j = 0 to 2000 do
    total := !total +. Geometric.level_probability geo j
  done;
  check_float ~tol:1e-6 "levels normalize" 1.0 !total;
  check_float ~tol:1e-12 "L = z/(1-z)"
    (Geometric.dominant_eigenvalue geo /. (1.0 -. Geometric.dominant_eigenvalue geo))
    (Geometric.mean_queue_length geo)

let test_geometric_large_n_robust () =
  (* the exact method hits ill-conditioning at large N (paper: N ≳ 24);
     the approximation must still work *)
  let env = paper_env ~servers:30 in
  let cap = Environment.mean_operative_servers env in
  let q = Qbd.create ~env ~lambda:(0.97 *. cap) ~mu:1.0 in
  let geo = geo_exn q in
  let z = Geometric.dominant_eigenvalue geo in
  Alcotest.(check bool) "z in (0,1)" true (z > 0.0 && z < 1.0)

(* ---- matrix-geometric ---- *)

let test_mg_r_satisfies_equation () =
  let env = paper_env ~servers:4 in
  let q = Qbd.create ~env ~lambda:3.0 ~mu:1.0 in
  match Matrix_geometric.solve q with
  | Error e -> Alcotest.failf "mg failed: %a" Matrix_geometric.pp_error e
  | Ok mg ->
      let r = Matrix_geometric.r_matrix mg in
      let q0 = Qbd.q0 q and q1 = Qbd.q1 q and q2 = Qbd.q2 q in
      let res =
        M.add q0 (M.add (M.mul r q1) (M.mul (M.mul r r) q2))
      in
      if M.max_abs res > 1e-10 then
        Alcotest.failf "R equation residual %g" (M.max_abs res)

let test_mg_spectral_radius_equals_zs () =
  let env = paper_env ~servers:5 in
  let q = Qbd.create ~env ~lambda:4.0 ~mu:1.0 in
  let sol = solve_exn q in
  match Matrix_geometric.solve q with
  | Error e -> Alcotest.failf "mg failed: %a" Matrix_geometric.pp_error e
  | Ok mg ->
      check_float ~tol:1e-5 "sp(R) = z_s"
        (Spectral.dominant_eigenvalue sol)
        (Matrix_geometric.spectral_radius_estimate mg)

let test_mg_agreement_sweep () =
  (* spectral and matrix-geometric agree across a parameter sweep *)
  List.iter
    (fun (servers, lambda) ->
      let env = paper_env ~servers in
      let q = Qbd.create ~env ~lambda ~mu:1.0 in
      let sol = solve_exn q in
      match Matrix_geometric.solve q with
      | Error e -> Alcotest.failf "mg failed: %a" Matrix_geometric.pp_error e
      | Ok mg ->
          let l1 = Spectral.mean_queue_length sol in
          let l2 = Matrix_geometric.mean_queue_length mg in
          if abs_float (l1 -. l2) /. l1 > 1e-7 then
            Alcotest.failf "N=%d λ=%g: %.10f vs %.10f" servers lambda l1 l2)
    [ (2, 1.0); (3, 2.5); (5, 3.0); (7, 5.0) ]

let test_mg_mode_marginals () =
  let env = paper_env ~servers:4 in
  let q = Qbd.create ~env ~lambda:3.0 ~mu:1.0 in
  match Matrix_geometric.solve q with
  | Error e -> Alcotest.failf "mg failed: %a" Matrix_geometric.pp_error e
  | Ok mg ->
      let mm = Matrix_geometric.mode_marginals mg in
      for i = 0 to Qbd.s q - 1 do
        check_float ~tol:1e-8 "marginal"
          (Environment.stationary_mode_probability env i)
          mm.(i)
      done

(* ---- truncated brute-force oracle ---- *)

let test_truncated_matches_spectral () =
  let env = paper_env ~servers:3 in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  let sol = solve_exn q in
  match Truncated.solve ~levels:300 q with
  | Error e -> Alcotest.failf "truncated failed: %a" Truncated.pp_error e
  | Ok t ->
      Alcotest.(check bool) "tail mass negligible" true
        (Truncated.truncation_mass t < 1e-10);
      check_float ~tol:1e-7 "L agrees" (Spectral.mean_queue_length sol)
        (Truncated.mean_queue_length t);
      (* per-state probabilities agree too *)
      for j = 0 to 6 do
        for i = 0 to Qbd.s q - 1 do
          check_float ~tol:1e-9 "p(i,j)"
            (Spectral.probability sol ~mode:i ~jobs:j)
            (Truncated.probability t ~mode:i ~jobs:j)
        done
      done

let test_truncated_m2_repairs () =
  (* hyperexponential repairs as well: m = 2 *)
  let inop = H.of_pairs [ (0.9303, 25.0043); (0.0697, 1.6346) ] in
  let env =
    Environment.create ~servers:2 ~operative:paper_operative ~inoperative:inop
  in
  let q = Qbd.create ~env ~lambda:1.2 ~mu:1.0 in
  let sol = solve_exn q in
  match Truncated.solve ~levels:250 q with
  | Error e -> Alcotest.failf "truncated failed: %a" Truncated.pp_error e
  | Ok t ->
      check_float ~tol:1e-7 "L agrees" (Spectral.mean_queue_length sol)
        (Truncated.mean_queue_length t)

let test_truncated_refuses_large () =
  let env = paper_env ~servers:10 in
  let q = Qbd.create ~env ~lambda:8.0 ~mu:1.0 in
  match Truncated.solve ~levels:500 q with
  | Error (Truncated.Too_large _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Truncated.pp_error e
  | Ok _ -> Alcotest.fail "expected size refusal"

(* ---- Mmc baseline ---- *)

let test_erlang_c_known_values () =
  (* M/M/1: C = ρ *)
  check_float ~tol:1e-12 "M/M/1" 0.6 (Mmc.erlang_c ~servers:1 ~offered_load:0.6);
  (* M/M/2 with a=1: C(2,1) = 1/3 *)
  check_float ~tol:1e-12 "M/M/2" (1.0 /. 3.0) (Mmc.erlang_c ~servers:2 ~offered_load:1.0)

let test_mmc_l_mm1 () =
  (* M/M/1: L = ρ/(1-ρ) *)
  check_float ~tol:1e-12 "L M/M/1" (0.75 /. 0.25)
    (Mmc.mean_queue_length ~servers:1 ~lambda:0.75 ~mu:1.0)

let test_mmc_min_servers () =
  let c = Mmc.min_servers_for_response_time ~lambda:8.0 ~mu:1.0 ~target:1.5 in
  (* must satisfy the target and be minimal *)
  Alcotest.(check bool) "meets target" true
    (Mmc.mean_response_time ~servers:c ~lambda:8.0 ~mu:1.0 <= 1.5);
  Alcotest.(check bool) "minimal" true
    (c = 9
    || Mmc.mean_response_time ~servers:(c - 1) ~lambda:8.0 ~mu:1.0 > 1.5)

(* ---- qcheck properties ---- *)

let gen_system =
  QCheck2.Gen.(
    let* servers = int_range 1 5 in
    let* util = float_range 0.3 0.9 in
    let* w1 = float_range 0.2 0.8 in
    let* r1 = float_range 0.05 0.5 in
    let* ratio = float_range 2.0 30.0 in
    let* inop_rate = float_range 5.0 50.0 in
    let op = H.of_pairs [ (w1, r1); (1.0 -. w1, r1 /. ratio) ] in
    let inop = exp_dist inop_rate in
    let env = Environment.create ~servers ~operative:op ~inoperative:inop in
    let lambda = util *. Environment.mean_operative_servers env in
    return (env, lambda))

let prop_spectral_consistency =
  QCheck2.Test.make ~name:"spectral solution self-consistent" ~count:25
    gen_system (fun (env, lambda) ->
      if lambda <= 0.0 then true
      else begin
        let q = Qbd.create ~env ~lambda ~mu:1.0 in
        match Spectral.solve q with
        | Error _ -> false
        | Ok sol ->
            let busy_ok =
              abs_float (Spectral.mean_busy_servers sol -. lambda) < 1e-6
            in
            let resid_ok = Spectral.residual sol < 1e-8 in
            let l = Spectral.mean_queue_length sol in
            busy_ok && resid_ok && l >= lambda /. 1.0 -. 1e-9
      end)

let prop_spectral_equals_mg =
  QCheck2.Test.make ~name:"spectral = matrix-geometric" ~count:15 gen_system
    (fun (env, lambda) ->
      if lambda <= 0.0 then true
      else begin
        let q = Qbd.create ~env ~lambda ~mu:1.0 in
        match (Spectral.solve q, Matrix_geometric.solve q) with
        | Ok a, Ok b ->
            let la = Spectral.mean_queue_length a in
            let lb = Matrix_geometric.mean_queue_length b in
            abs_float (la -. lb) /. Float.max 1.0 la < 1e-6
        | _ -> false
      end)

let prop_geometric_upper_bound_heavyish =
  QCheck2.Test.make ~name:"dominant eigenvalue in (0,1)" ~count:25 gen_system
    (fun (env, lambda) ->
      if lambda <= 0.0 then true
      else begin
        let q = Qbd.create ~env ~lambda ~mu:1.0 in
        match Geometric.solve q with
        | Error _ -> false
        | Ok geo ->
            let z = Geometric.dominant_eigenvalue geo in
            z > 0.0 && z < 1.0
      end)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "urs_mmq"
    [
      ( "environment",
        [
          Alcotest.test_case "mode count formula (eq 12)" `Quick
            test_mode_count_formula;
          Alcotest.test_case "enumeration matches count" `Quick
            test_mode_enumeration_matches_count;
          Alcotest.test_case "ordering matches paper §3.1" `Quick
            test_mode_ordering_matches_paper;
          Alcotest.test_case "index roundtrip" `Quick test_mode_index_roundtrip;
          Alcotest.test_case "matrix A matches paper §3.1" `Quick
            test_transition_matrix_matches_paper_example;
          Alcotest.test_case "availability" `Quick test_availability;
          Alcotest.test_case "stationary probabilities sum to 1" `Quick
            test_stationary_mode_probabilities_sum_to_one;
          Alcotest.test_case "stationary satisfies balance" `Quick
            test_stationary_matches_environment_balance;
        ] );
      ( "stability",
        [ Alcotest.test_case "threshold (eq 11)" `Quick test_stability_threshold ] );
      ( "qbd",
        [
          Alcotest.test_case "block structure" `Quick test_qbd_blocks;
          Alcotest.test_case "transition blocks nonsingular" `Quick
            test_transition_block_nonsingular;
        ] );
      ( "spectral",
        [
          Alcotest.test_case "reliable limit = M/M/c" `Quick
            test_spectral_matches_mmc_when_reliable;
          Alcotest.test_case "N=1 cross-check" `Quick
            test_spectral_mm1_with_breakdowns_closed_form;
          Alcotest.test_case "waiting-time metrics" `Quick
            test_spectral_waiting_metrics;
          Alcotest.test_case "eigenvalue count and range" `Quick
            test_spectral_eigenvalue_count_and_range;
          Alcotest.test_case "probabilities normalize" `Quick
            test_spectral_probabilities_normalize;
          Alcotest.test_case "mode marginals = multinomial" `Quick
            test_spectral_mode_marginals_match_multinomial;
          Alcotest.test_case "busy servers = λ/µ" `Quick
            test_spectral_busy_servers_identity;
          Alcotest.test_case "balance residual" `Quick test_spectral_balance_residual;
          Alcotest.test_case "instability detected" `Quick
            test_spectral_unstable_detected;
          Alcotest.test_case "little's law" `Quick test_spectral_little_law;
          Alcotest.test_case "hyperexponential repairs (m=2)" `Quick
            test_spectral_hyperexponential_repairs;
          Alcotest.test_case "three-phase operative (n=3)" `Quick
            test_spectral_three_phase_operative;
          Alcotest.test_case "real eigenvectors = complex-LU ones" `Quick
            test_spectral_real_eigenvectors_match_complex;
          Alcotest.test_case "answers pinned bit for bit" `Quick
            test_pinned_answers;
          Alcotest.test_case "balancing and QR eigenvalues pinned bit for bit"
            `Quick test_pinned_eigenvalue_stage;
          Alcotest.test_case "answers pinned on 66 models" `Quick
            test_pinned_broad;
        ] );
      ( "phase-type extension",
        [
          Alcotest.test_case "PH path reproduces the paper's A" `Quick
            test_ph_env_consistent_with_h2_env;
          Alcotest.test_case "erlang operative vs oracle" `Quick
            test_ph_env_erlang_vs_truncated;
          Alcotest.test_case "coxian mode marginals" `Quick
            test_ph_env_coxian_marginals;
          Alcotest.test_case "erlang-3 complex spectrum" `Quick
            test_ph_env_erlang3_complex_spectrum;
          Alcotest.test_case "defective alpha rejected" `Quick
            test_ph_env_rejects_defect;
        ] );
      ( "transient",
        [
          Alcotest.test_case "relaxes to steady state" `Quick
            test_transient_relaxes_to_steady_state;
          Alcotest.test_case "distribution normalized" `Quick
            test_transient_distribution_normalized;
          Alcotest.test_case "operative relaxation" `Quick
            test_transient_operative_relaxation;
          Alcotest.test_case "unstable queue grows" `Quick
            test_transient_unstable_queue_grows;
        ] );
      ( "repair crews",
        [
          Alcotest.test_case "matches oracle" `Quick test_crews_match_oracle;
          Alcotest.test_case "capacity degrades" `Quick
            test_crews_degrade_capacity;
          Alcotest.test_case "stationary distribution consistent" `Quick
            test_crews_stationary_solve_consistent;
        ] );
      ( "geometric",
        [
          Alcotest.test_case "dominant eigenvalue matches spectral" `Quick
            test_geometric_dominant_matches_spectral;
          Alcotest.test_case "accuracy improves with load (fig 8)" `Quick
            test_geometric_accuracy_improves_with_load;
          Alcotest.test_case "mode weights and normalization" `Quick
            test_geometric_mode_weights;
          Alcotest.test_case "robust at large N" `Quick test_geometric_large_n_robust;
          Alcotest.test_case "spectral queue quantiles" `Quick
            test_spectral_queue_quantiles;
          Alcotest.test_case "geometric queue quantiles" `Quick
            test_geometric_queue_quantiles;
        ] );
      ( "matrix_geometric",
        [
          Alcotest.test_case "R satisfies its equation" `Quick
            test_mg_r_satisfies_equation;
          Alcotest.test_case "sp(R) = z_s" `Quick test_mg_spectral_radius_equals_zs;
          Alcotest.test_case "agreement sweep vs spectral" `Quick
            test_mg_agreement_sweep;
          Alcotest.test_case "mode marginals" `Quick test_mg_mode_marginals;
        ] );
      ( "truncated oracle",
        [
          Alcotest.test_case "matches spectral state-by-state" `Quick
            test_truncated_matches_spectral;
          Alcotest.test_case "hyperexponential repairs" `Quick
            test_truncated_m2_repairs;
          Alcotest.test_case "refuses oversized chains" `Quick
            test_truncated_refuses_large;
        ] );
      ( "mmc",
        [
          Alcotest.test_case "erlang C known values" `Quick
            test_erlang_c_known_values;
          Alcotest.test_case "M/M/1 queue length" `Quick test_mmc_l_mm1;
          Alcotest.test_case "min servers for target" `Quick test_mmc_min_servers;
        ] );
      ( "properties",
        qc
          [
            prop_spectral_consistency;
            prop_spectral_equals_mg;
            prop_geometric_upper_bound_heavyish;
          ] );
    ]
