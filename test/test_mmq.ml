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
  let w = Urs_linalg.Lu.workspace s in
  Qbd.char_poly_real q 1.0 w;
  let log_det, _ = Urs_linalg.Lu.log_abs_det w in
  if exp log_det > 1e-8 then Alcotest.failf "det Q(1) = %g" (exp log_det)

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
     from the s×s real LU; it must be the one that Q(z)'s interleaved
     2s×2s form, which serves complex eigenvalues, gives at the same z.
     One workspace of each order serves every eigenvalue, as in the
     solver, so each Q(z_k) goes in over the windows the previous
     factorization left. *)
  List.iter
    (fun servers ->
      let q =
        Qbd.create ~env:(paper_env ~servers)
          ~lambda:(0.8 *. float_of_int servers) ~mu:1.0
      in
      let work = Urs_linalg.Lu.workspace (Qbd.s q) in
      let work2 = Urs_linalg.Lu.workspace (2 * Qbd.s q) in
      Array.iter
        (fun z ->
          if Cx.im z <> 0.0 then
            Alcotest.failf "N=%d: complex eigenvalue %a" servers Cx.pp z;
          Qbd.char_poly_real q (Cx.re z) work;
          let real =
            Urs_linalg.Cvec.normalize
              (Urs_linalg.Cvec.of_real (Urs_linalg.Lu.left_null_vector work))
          in
          Qbd.char_poly_complex q z work2;
          let complex =
            Urs_linalg.Cvec.normalize
              (Urs_linalg.Cvec.of_interleaved
                 (Urs_linalg.Lu.left_null_vector work2))
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
   these may move. The three reversible models take their eigenvalues
   from the definite linearization; the Erlang-3 model takes the
   companion path, its complex eigenvectors from Q(z)'s interleaved real
   form, and its level-N system in a real basis. *)
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
  pin "paper N=5" (paper 5) ~l:0x1.8f438c15114bdp+2 ~residual:0x1.4p-51
    ~cond:0x1.ff98911bf1317p+4 ~z:0x1.9a157f3806fd8p-1
    ~geo_z:0x1.9a157f3806f41p-1 ~geo_l:0x1.0185043e000d6p+2;
  pin "paper N=12" (paper 12) ~l:0x1.630765a01d224p+3 ~residual:0x1.4fp-51
    ~cond:0x1.ff593becefccep+4 ~z:0x1.9a157f3806fd6p-1
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
    ~l:0x1.9d9334781377fp+1 ~residual:0x1.88p-52 ~cond:0x1.62c4efbf9ef3bp+1
    ~z:0x1.6832419510b21p-1 ~geo_z:0x1.6832419510c06p-1
    ~geo_l:0x1.2fb7290ba0ecp+1;
  (* the paper's fitted H2 repair periods *)
  let h2_repairs =
    Environment.create ~servers:6 ~operative:paper_operative
      ~inoperative:(H.of_pairs [ (0.9303, 25.0043); (0.0697, 1.6346) ])
  in
  pin "H2 repairs N=6"
    (Qbd.create ~env:h2_repairs ~lambda:4.5 ~mu:1.0)
    ~l:0x1.729fd96c9a706p+2 ~residual:0x1.bd5591p-51
    ~cond:0x1.1028a5692af5bp+5 ~z:0x1.81035c61a892dp-1
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
   paper's H2 repairs at N = 2..6 and three loads each, 66 models. Each
   digest is the MD5 of the %h renderings of its models' spectral L,
   residual, boundary condition, dominant z and max eigen residual, and
   geometric z and L, in that order. The 15 Erlang-3 models take the
   companion path, and their digest is the one the companion path gave
   before the definite path existed. The 51 reversible models take the
   definite path; besides their digest, each L is held to the companion
   path's L, within 1e-10 relative. The Erlang-3 models' complex
   eigenvectors and level-N system moved from a dense complex LU to
   real arithmetic; besides their digest, each L is held to the one the
   complex LU gave, within 1e-12 relative. *)
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

(* the companion path's L on the 51 reversible models, in order *)
let companion_l =
  [|
    0x1.9a333966b533bp-4; 0x1.dfe1bad852014p+0; 0x1.2f2a84ff5db49p+3;
    0x1.8e0970cc2e7bap+6; 0x1.32e7743ae6d23p-3; 0x1.2a5e0a665164ep+1;
    0x1.41b284a366f05p+3; 0x1.90775c2ce3eb4p+6; 0x1.992251a688b0ap-3;
    0x1.6a141b89402a4p+1; 0x1.5607d0cd71557p+3; 0x1.9321715a1ae2cp+6;
    0x1.ff68f168aba5ep-3; 0x1.ad03ae0234405p+1; 0x1.6b87408c05ec1p+3;
    0x1.95f2795a8bd93p+6; 0x1.32d87487a8f5p-2; 0x1.f21e99eabbea2p+1;
    0x1.81dbbd39e369ap+3; 0x1.98df648d3bbe4p+6; 0x1.65fc84a3daf39p-2;
    0x1.1c630fe01fefbp+2; 0x1.98d233cd54b16p+3; 0x1.9be18f0b8e82dp+6;
    0x1.99209731596cfp-2; 0x1.404a46cd431c9p+2; 0x1.b049209ea4471p+3;
    0x1.9ef49d086698dp+6; 0x1.cc44aa0b370edp-2; 0x1.64a25f9837401p+2;
    0x1.c8291dcaccd32p+3; 0x1.a215832e8bbc6p+6; 0x1.ff68bcee818edp-2;
    0x1.8952cda032bb8p+2; 0x1.e061118abb0e8p+3; 0x1.a542079e3dc76p+6;
    0x1.514233c570f81p-1; 0x1.dffb58d118a0ap+0; 0x1.2f64ec665f366p+3;
    0x1.db5d2d12ad168p-1; 0x1.2a4fc74eaa4c2p+1; 0x1.41e3e56c7e6b5p+3;
    0x1.36a48bed21b14p+0; 0x1.69eae1d7d7563p+1; 0x1.56304c1c332ccp+3;
    0x1.8161826528048p+0; 0x1.acbfb92197658p+1; 0x1.6ba6e8b974017p+3;
    0x1.ccff75ec7e9b9p+0; 0x1.f1c030e12e614p+1; 0x1.81f29d6fdecbep+3;
  |]

(* the complex LU's L on the 15 Erlang-3 models, in order *)
let complex_lu_l =
  [|
    0x1.4ba3110c14c92p-1; 0x1.e02b72e1442e9p+0; 0x1.32de92bf2d6a9p+3;
    0x1.cc406f32e5b52p-1; 0x1.26c5d9d2c5f9cp+1; 0x1.44688dbcd9b87p+3;
    0x1.2aacc79a6954p+0; 0x1.6293e6e7f00ap+1; 0x1.57ab0bb498901p+3;
    0x1.7148d3d4796a1p+0; 0x1.a18a779553adbp+1; 0x1.6c0ab088dcf3ap+3;
    0x1.b8fb11aaf04b5p+0; 0x1.e2a6cf570b2afp+1; 0x1.813651f28a32cp+3;
  |]

let test_pinned_broad () =
  let models = broad_models () in
  Alcotest.(check int) "model count" 66 (List.length models);
  let answers (label, q) =
    let sol = solve_exn q in
    let g =
      match Geometric.solve q with
      | Ok g -> g
      | Error e -> Alcotest.failf "%s: %a" label Geometric.pp_error e
    in
    ( sol,
      [
        Spectral.mean_queue_length sol;
        Spectral.residual sol;
        Spectral.boundary_condition sol;
        Spectral.dominant_eigenvalue sol;
        Spectral.max_eigen_residual sol;
        Geometric.dominant_eigenvalue g;
        Geometric.mean_queue_length g;
      ] )
  in
  let erlang, reversible =
    List.partition (fun (_, q) -> not (Qbd.reversible q)) models
  in
  Alcotest.(check int) "Erlang-3 models" 15 (List.length erlang);
  Alcotest.(check int) "reversible models" 51 (List.length reversible);
  let values path models =
    List.concat_map
      (fun m ->
        let sol, v = answers m in
        if Spectral.eig_path sol <> path then
          Alcotest.failf "%s: unexpected eigenvalue path" (fst m);
        v)
      models
  in
  let erl = values (Spectral.Companion Spectral.Not_reversible) erlang in
  Alcotest.(check string)
    "answers on 15 Erlang-3 models" "5e0fdd85ace13cae9a50837ebc39c415"
    (digest_floats erl);
  List.iteri
    (fun k l ->
      let l0 = complex_lu_l.(k) in
      if abs_float (l -. l0) > 1e-12 *. l0 then
        Alcotest.failf "%s: L %h against the complex LU's %h"
          (fst (List.nth erlang k)) l l0)
    (List.filteri (fun i _ -> i mod 7 = 0) erl);
  let rev = values Spectral.Definite reversible in
  Alcotest.(check string)
    "answers on 51 reversible models" "df6f93fd846e9e1fa3d180af6619436b"
    (digest_floats rev);
  List.iteri
    (fun k l ->
      let l0 = companion_l.(k) in
      if abs_float (l -. l0) > 1e-10 *. l0 then
        Alcotest.failf "%s: L %h against the companion path's %h"
          (fst (List.nth reversible k)) l l0)
    (List.filteri (fun i _ -> i mod 7 = 0) rev)

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
     one eigenvector per pair from Q(z)'s interleaved real form and the
     other its conjugate *)
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

(* one uniformization pass serves several times, each L(t) bit for bit
   the one a pass of its own gives: times on a half-unit grid (so 0 and
   repeats occur), in random order, on small paper models from light to
   unstable load *)
let prop_relaxation_profile_bitwise =
  let bits x = Int64.bits_of_float x in
  QCheck2.Test.make ~name:"relaxation profile = per-time mean_jobs_at, bitwise"
    ~count:20
    ~print:(fun (servers, load, times) ->
      Printf.sprintf "N=%d load=%.3f times=[%s]" servers load
        (String.concat "; " (List.map (Printf.sprintf "%g") times)))
    QCheck2.Gen.(
      triple (int_range 1 3) (float_range 0.3 1.2)
        (list_size (int_range 1 6)
           (map (fun k -> 0.5 *. float_of_int k) (int_range 0 12))))
    (fun (servers, load, times) ->
      let env = paper_env ~servers in
      let lambda = load *. Environment.mean_operative_servers env in
      match Transient.create ~levels:40 (Qbd.create ~env ~lambda ~mu:1.0) with
      | Error _ -> false
      | Ok t ->
          let initial = Transient.empty_all_operative t in
          List.for_all2
            (fun time (time', l) ->
              bits time = bits time'
              && bits l = bits (Transient.mean_jobs_at t ~initial ~time))
            times
            (Transient.relaxation_profile t ~initial ~times))

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

(* the boundary elimination that Spectral also runs, certified through
   this caller: levels 0 .. N+2 satisfy their balance equations *)
let test_mg_balance () =
  List.iter
    (fun (label, q) ->
      match Matrix_geometric.solve q with
      | Error e -> Alcotest.failf "%s: %a" label Matrix_geometric.pp_error e
      | Ok mg ->
          let s = Qbd.s q and n = Environment.servers (Qbd.env q) in
          let level j =
            Array.init s (fun i ->
                Matrix_geometric.probability mg ~mode:i ~jobs:j)
          in
          for j = 0 to n + 2 do
            let r =
              Qbd.generator_residual q
                [| level (j - 1); level j; level (j + 1) |]
                j
            in
            if r > 1e-10 then
              Alcotest.failf "%s: level %d balance residual %g" label j r
          done)
    [
      ("paper N=5", Qbd.create ~env:(paper_env ~servers:5) ~lambda:4.0 ~mu:1.0);
      ("erlang-3 N=3", Qbd.create ~env:(erlang3_env ()) ~lambda:2.0 ~mu:1.0);
    ]

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

(* Random models: H2 operative periods (reversible, real spectra) or,
   with one-way phases and so complex eigenvalues, Erlang-k (k = 2..4)
   or Coxian-2 ones; exponential or H2 repairs; loads 0.3..0.9 of the
   mean operative capacity. N <= 5 for H2/exponential, N <= 4 up to
   four phases and N <= 3 beyond, which keeps s <= 56. A draw is its
   label, the environment, λ (µ = 1) and the same system as a model. *)
let gen_system =
  let open QCheck2.Gen in
  let* kind = oneofl [ `H2; `Erlang; `Coxian ] in
  let* op_phases, operative =
    match kind with
    | `H2 ->
        let* w1 = float_range 0.2 0.8 in
        let* r1 = float_range 0.05 0.5 in
        let* ratio = float_range 2.0 30.0 in
        return
          ( 2,
            Urs_prob.Phase_type.of_hyperexponential
              (H.of_pairs [ (w1, r1); (1.0 -. w1, r1 /. ratio) ]) )
    | `Erlang ->
        let* k = int_range 2 4 in
        let* rate = float_range 0.05 1.0 in
        return
          (k, Urs_prob.Phase_type.of_erlang (Urs_prob.Erlang.create ~k ~rate))
    | `Coxian ->
        let* r1 = float_range 0.05 1.0 in
        let* r2 = float_range 0.005 0.5 in
        let* p = float_range 0.1 0.9 in
        return
          ( 2,
            Urs_prob.Phase_type.create ~alpha:[| 1.0; 0.0 |]
              ~t_matrix:(M.of_arrays [| [| -.r1; p *. r1 |]; [| 0.0; -.r2 |] |])
          )
  in
  let* h2_repairs = bool in
  let* inop_rate = float_range 5.0 50.0 in
  let* inop =
    if h2_repairs then
      let* w1 = float_range 0.5 0.95 in
      let* ratio = float_range 2.0 20.0 in
      return (H.of_pairs [ (w1, inop_rate); (1.0 -. w1, inop_rate /. ratio) ])
    else return (exp_dist inop_rate)
  in
  let phases = op_phases + if h2_repairs then 2 else 1 in
  let* servers =
    int_range 1
      (if phases = 3 && kind = `H2 then 5 else if phases <= 4 then 4 else 3)
  in
  let* util = float_range 0.3 0.9 in
  let env =
    Environment.create_ph ~servers ~operative
      ~inoperative:(Urs_prob.Phase_type.of_hyperexponential inop)
      ()
  in
  let lambda = util *. Environment.mean_operative_servers env in
  let label =
    Printf.sprintf "%s op (%d phases), %s repairs, N=%d, util=%.3f"
      (match kind with `H2 -> "H2" | `Erlang -> "Erlang" | `Coxian -> "Coxian")
      op_phases
      (if h2_repairs then "H2" else "exponential")
      servers util
  in
  let model =
    Urs.Model.create ~servers ~arrival_rate:lambda ~service_rate:1.0
      ~operative:(Urs_prob.Distribution.Phase_type operative)
      ~inoperative:
        (Urs_prob.Distribution.Phase_type
           (Urs_prob.Phase_type.of_hyperexponential inop))
      ()
  in
  return (label, env, lambda, model)

let print_system (label, _, _, _) = label

let prop_spectral_consistency =
  QCheck2.Test.make ~name:"spectral solution self-consistent" ~count:25
    ~print:print_system gen_system (fun (_, env, lambda, _) ->
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
            (* the eigenpairs of complex spectra have no other check *)
            let eigen_ok = Spectral.max_eigen_residual sol <= 1e-9 in
            let l = Spectral.mean_queue_length sol in
            busy_ok && resid_ok && eigen_ok && l >= lambda /. 1.0 -. 1e-9
      end)

(* the truncated chain as well where it fits: s·(levels + 1) <= 2,000
   states (under its 4,000 limit; 32 MB dense, copied once by its LU)
   with a tail mass below 1e-10 *)
let prop_spectral_equals_mg =
  QCheck2.Test.make ~name:"spectral = matrix-geometric" ~count:15
    ~print:print_system gen_system (fun (_, env, lambda, _) ->
      if lambda <= 0.0 then true
      else begin
        let q = Qbd.create ~env ~lambda ~mu:1.0 in
        match (Spectral.solve q, Matrix_geometric.solve q) with
        | Ok a, Ok b ->
            let la = Spectral.mean_queue_length a in
            let lb = Matrix_geometric.mean_queue_length b in
            abs_float (la -. lb) /. Float.max 1.0 la < 1e-6
            && begin
                 let levels = min 300 ((2000 / Qbd.s q) - 1) in
                 match Truncated.solve ~levels q with
                 | Ok t when Truncated.truncation_mass t < 1e-10 ->
                     abs_float (la -. Truncated.mean_queue_length t)
                     /. Float.max 1.0 la
                     < 1e-7
                 | Ok _ -> true
                 | Error _ -> false
               end
        | _ -> false
      end)

let prop_geometric_upper_bound_heavyish =
  QCheck2.Test.make ~name:"dominant eigenvalue in (0,1)" ~count:25
    ~print:print_system gen_system (fun (_, env, lambda, _) ->
      if lambda <= 0.0 then true
      else begin
        let q = Qbd.create ~env ~lambda ~mu:1.0 in
        match Geometric.solve q with
        | Error _ -> false
        | Ok geo ->
            let z = Geometric.dominant_eigenvalue geo in
            z > 0.0 && z < 1.0
      end)

(* One cache-missing Solver.evaluate writes one ledger record, its
   solver.evaluate record, for each analytic strategy. The record's
   [modes] parameter, its summary after the performance fields and its
   gauges hold the solution's own accessors, floats to the bit, and the
   last-solve gauges of the strategy read the same values. *)
let prop_one_record_per_solve =
  let module Ledger = Urs_obs.Ledger in
  let module Json = Urs_obs.Json in
  let module Solver = Urs.Solver in
  let bits = Int64.bits_of_float in
  let same (k, v) (k', w) =
    k = k'
    &&
    match (v, w) with
    | Json.Float x, Json.Float y -> Int64.equal (bits x) (bits y)
    | v, w -> v = w
  in
  let same_list xs ys =
    List.length xs = List.length ys && List.for_all2 same xs ys
  in
  let floats = List.map (fun (k, v) -> (k, Json.Float v)) in
  let recorded model strategy ~modes ~fields ~gauges =
    Ledger.reset ();
    Ledger.set_memory true;
    let records =
      Fun.protect ~finally:Ledger.reset (fun () ->
          ignore (Solver.evaluate ~strategy model);
          Ledger.recent ())
    in
    let label = Solver.strategy_label strategy in
    let last (name, _) =
      ( name,
        Option.value ~default:nan
          (Urs_obs.Metrics.value ~labels:[ ("strategy", label) ] name) )
    in
    match records with
    | [ r ] when r.Ledger.kind = "solver.evaluate" ->
        (* mean_jobs, mean_response and utilization come first *)
        let solver_fields =
          match r.Ledger.summary with _ :: _ :: _ :: tail -> tail | _ -> []
        in
        List.assoc_opt "modes" r.Ledger.params = Some modes
        && same_list solver_fields fields
        && same_list (floats r.Ledger.gauges) (floats gauges)
        && same_list (floats (List.map last gauges)) (floats gauges)
    | rs -> QCheck2.Test.fail_reportf "%s: %d records" label (List.length rs)
  in
  QCheck2.Test.make ~name:"one solver.evaluate record per solve" ~count:10
    ~print:print_system gen_system (fun (_, _, _, model) ->
      let q = Option.get (Urs.Model.qbd model) in
      let modes = Json.Int (Qbd.s q) in
      let sp = Result.get_ok (Spectral.solve q) in
      let z = Spectral.dominant_eigenvalue sp in
      let residual = Spectral.residual sp in
      let path =
        match Spectral.eig_path sp with
        | Spectral.Definite -> [ ("eig_path", Json.String "definite") ]
        | Spectral.Companion why ->
            [
              ("eig_path", Json.String "companion");
              ("eig_fallback", Json.String (Spectral.fallback_name why));
            ]
      in
      let mg = Result.get_ok (Matrix_geometric.solve q) in
      let rho = Matrix_geometric.spectral_radius_estimate mg in
      let zg =
        Geometric.dominant_eigenvalue (Result.get_ok (Geometric.solve q))
      in
      recorded model Solver.Exact ~modes
        ~fields:
          ([
             ("dominant_z", Json.Float z);
             ("eigenvalues", modes);
             ("residual", Json.Float residual);
             ( "boundary_condition",
               Json.Float (Spectral.boundary_condition sp) );
           ]
          @ path)
        ~gauges:
          [
            ("urs_spectral_dominant_z", z);
            ("urs_spectral_residual", residual);
            ("urs_spectral_eigenvalues", float_of_int (Qbd.s q));
          ]
      && recorded model Solver.Matrix_geometric ~modes
           ~fields:
             [
               ("dominant_z", Json.Float rho);
               ("spectral_radius", Json.Float rho);
               ("r_iterations", Json.Int (Matrix_geometric.r_iterations mg));
             ]
           ~gauges:[ ("urs_spectral_dominant_z", rho) ]
      && recorded model Solver.Approximate ~modes
           ~fields:[ ("dominant_z", Json.Float zg) ]
           ~gauges:[ ("urs_spectral_dominant_z", zg) ])

(* ---- the definite path of reversible models ---- *)

(* Random models over the structure the definite path relies on: H2 or
   H3 operative periods, exponential or H2 inoperative periods, with or
   without a limit on repair crews, N <= 6, loads in (0.05, 0.98) of
   the stability limit; and Erlang-k operative periods, whose one-way
   phases break detailed balance. *)
let gen_definite =
  let open QCheck2.Gen in
  let hyper phases lo hi =
    let* ws = list_repeat phases (float_range 0.05 1.0) in
    let* rs = list_repeat phases (float_range lo hi) in
    let total = List.fold_left ( +. ) 0.0 ws in
    return
      (Urs_prob.Phase_type.of_hyperexponential
         (H.create
            ~weights:(Array.of_list (List.map (fun w -> w /. total) ws))
            ~rates:(Array.of_list rs)))
  in
  let* servers = int_range 1 6 in
  let* kind = oneofl [ `H2; `H3; `Erlang ] in
  let* operative =
    match kind with
    | `H2 -> hyper 2 0.005 1.0
    | `H3 -> hyper 3 0.005 1.0
    | `Erlang ->
        let* k = int_range 2 4 in
        let* rate = float_range 0.05 1.0 in
        return
          (Urs_prob.Phase_type.of_erlang (Urs_prob.Erlang.create ~k ~rate))
  in
  let* inop_phases = int_range 1 2 in
  let* inoperative = hyper inop_phases 1.0 50.0 in
  let* crews = if servers = 1 then return None else opt (int_range 1 (servers - 1)) in
  let* load = float_range 0.05 0.98 in
  let env =
    Environment.create_ph ?repair_crews:crews ~servers ~operative ~inoperative
      ()
  in
  let lambda = load *. Stability.max_arrival_rate ~env ~mu:1.0 in
  let label =
    Printf.sprintf "%s op, %d-phase inop, N=%d, crews=%s, load=%.3f"
      (match kind with `H2 -> "H2" | `H3 -> "H3" | `Erlang -> "Erlang")
      inop_phases servers
      (match crews with Some c -> string_of_int c | None -> "-")
      load
  in
  return (label, kind = `Erlang, Qbd.create ~env ~lambda ~mu:1.0)

let prop_definite_structure =
  QCheck2.Test.make ~name:"reversible models: real, gapped, definite spectra"
    ~count:30 ~print:(fun (label, _, _) -> label) gen_definite
    (fun (label, erlang, q) ->
      let fail fmt = QCheck2.Test.fail_reportf ("%s: " ^^ fmt) label in
      let sol =
        match Spectral.solve q with
        | Ok sol -> sol
        | Error e -> fail "%a" Spectral.pp_error e
      in
      if erlang then begin
        if Qbd.reversible q then fail "Erlang periods reported reversible";
        Spectral.eig_path sol = Spectral.Companion Spectral.Not_reversible
        || fail "Erlang periods left the companion path"
      end
      else begin
        if not (Qbd.reversible q) then fail "detailed balance fails";
        let s = Qbd.s q in
        let companion =
          Urs_linalg.Companion.eigenvalues_inside_unit_disk ~q0:(Qbd.q0 q)
            ~q1:(Qbd.q1 q) ~q2:(Qbd.q2 q) ()
        in
        if Array.length companion <> s then
          fail "companion found %d eigenvalues, not %d"
            (Array.length companion) s;
        if Array.exists (fun z -> Cx.im z <> 0.0) companion then
          fail "companion QR returned a complex eigenvalue";
        let zs = Cx.re companion.(s - 1) in
        let mid = 0.5 *. (1.0 +. (1.0 /. zs)) in
        if not (Urs_linalg.Cholesky.factor (Qbd.neg_qw q mid)) then
          fail "-Q_w has no Cholesky factor at the gap midpoint %g" mid;
        if Spectral.eig_path sol <> Spectral.Definite then
          fail "reversible model left the definite path";
        Array.iteri
          (fun k z ->
            let zc = Cx.re companion.(k) in
            if abs_float (Cx.re z -. zc) > 1e-11 *. zc then
              fail "z_%d = %h against the companion's %h" k (Cx.re z) zc)
          (Spectral.eigenvalues sol);
        true
      end)

(* every solver.evaluate record of an exact solve names its eigenvalue
   path, and after a fallback the reason, also when the solve fails *)
let test_ledger_eig_path () =
  let module Ledger = Urs_obs.Ledger in
  let module Json = Urs_obs.Json in
  let module D = Urs_prob.Distribution in
  let path_fields ?max_iter model =
    Ledger.reset ();
    Ledger.set_memory true;
    Fun.protect ~finally:Ledger.reset (fun () ->
        ignore (Urs.Solver.evaluate ?max_iter model);
        match Ledger.recent () with
        | [ r ] when r.Ledger.kind = "solver.evaluate" ->
            List.filter_map
              (fun key ->
                match List.assoc_opt key r.Ledger.summary with
                | Some (Json.String v) -> Some (key ^ "=" ^ v)
                | _ -> None)
              [ "eig_path"; "eig_fallback" ]
        | rs -> Alcotest.failf "expected one record, got %d" (List.length rs))
  in
  let paper =
    Urs.Model.create ~servers:5 ~arrival_rate:4.0 ~service_rate:1.0
      ~operative:Urs.Model.paper_operative
      ~inoperative:Urs.Model.paper_inoperative_exp ()
  in
  Alcotest.(check (list string))
    "paper model" [ "eig_path=definite" ] (path_fields paper);
  Alcotest.(check (list string))
    "Erlang-3 model"
    [ "eig_path=companion"; "eig_fallback=not_reversible" ]
    (path_fields
       (Urs.Model.create ~servers:3 ~arrival_rate:2.0 ~service_rate:1.0
          ~operative:(D.erlang ~k:3 ~rate:0.3)
          ~inoperative:(D.exponential ~rate:2.0) ()));
  (* a QL stopped at its cap falls back; the Francis QR, held to the
     same cap, then fails the solve *)
  Alcotest.(check (list string))
    "QL at its cap"
    [ "eig_path=companion"; "eig_fallback=ql_cap" ]
    (path_fields ~max_iter:1 paper)

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
          Alcotest.test_case "real eigenvectors = complex 2s-form ones" `Quick
            test_spectral_real_eigenvectors_match_complex;
          Alcotest.test_case "answers pinned bit for bit" `Quick
            test_pinned_answers;
          Alcotest.test_case "balancing and QR eigenvalues pinned bit for bit"
            `Quick test_pinned_eigenvalue_stage;
          Alcotest.test_case "answers pinned on 66 models" `Quick
            test_pinned_broad;
          Alcotest.test_case "ledger names the eigenvalue path" `Quick
            test_ledger_eig_path;
        ]
        @ qc [ prop_definite_structure ] );
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
        ]
        @ qc [ prop_relaxation_profile_bitwise ] );
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
          Alcotest.test_case "levels satisfy balance" `Quick test_mg_balance;
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
            prop_one_record_per_solve;
          ] );
    ]
