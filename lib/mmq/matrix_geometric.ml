module M = Urs_linalg.Matrix
module V = Urs_linalg.Vec
module CM = Urs_linalg.Cmatrix
module CV = Urs_linalg.Cvec
module Lu = Urs_linalg.Lu
module Clu = Urs_linalg.Clu
module Metrics = Urs_obs.Metrics
module Span = Urs_obs.Span
module Ledger = Urs_obs.Ledger
module Json = Urs_obs.Json

let strategy_labels = [ ("strategy", "mg") ]

let m_dominant =
  Metrics.gauge ~labels:strategy_labels
    ~help:"Spectral radius of R from the last solve (last write)"
    "urs_spectral_dominant_z"

type error =
  | Unstable of Stability.verdict
  | No_convergence of { iterations : int; delta : float }
  | Numerical of string

let pp_error ppf = function
  | Unstable v ->
      Format.fprintf ppf "queue is unstable: %a" Stability.pp_verdict v
  | No_convergence { iterations; delta } ->
      Format.fprintf ppf "R iteration stalled after %d sweeps (delta %.2e)"
        iterations delta
  | Numerical msg -> Format.fprintf ppf "numerical failure: %s" msg

type t = {
  qbd : Qbd.t;
  r : M.t;
  iterations : int;
  boundary : V.t array; (* v_0 .. v_{N-1} *)
  v_n : V.t; (* v_N; higher levels via powers of R *)
  rho : float; (* sp(R), filled by [solve] once its span has closed *)
}

exception Solve_error of error

let compute_r ~tol ~max_iter q =
  let s = Qbd.s q in
  let q0 = Qbd.q0 q and q2 = Qbd.q2 q in
  let q1_f =
    match Lu.factor (Qbd.q1 q) with
    | Ok f -> f
    | Error `Singular -> raise (Solve_error (Numerical "singular Q1 block"))
  in
  (* per-iteration telemetry of the fixed point (entrywise delta per
     sweep); the loop state lives inside the tracked function, so no
     closure boxes it *)
  let r, iterations, delta =
    Urs_obs.Convergence.track ~max_iter ~solver:"mg_r"
      ~label:(fun () ->
        Printf.sprintf "mg N=%d s=%d" (Environment.servers (Qbd.env q)) s)
      ~callback:Fun.id
      ~converged:(fun (_, _, delta) -> not (delta > tol))
      (fun observe ->
        (* R ← −(Q0 + R²Q2) Q1⁻¹, i.e. solve X Q1 = −(Q0 + R²Q2):
           transpose to Q1ᵀ Xᵀ = −(...)ᵀ *)
        let r = ref (M.create s s) in
        let delta = ref infinity in
        let iters = ref 0 in
        while !delta > tol && !iters < max_iter do
          incr iters;
          let rhs = M.scale (-1.0) (M.add q0 (M.mul (M.mul !r !r) q2)) in
          (* row i of the update X solves xᵢ Q1 = rhsᵢ, i.e.
             Q1ᵀ xᵢᵀ = rhsᵢᵀ *)
          let x = M.create s s in
          for i = 0 to s - 1 do
            M.set_row x i (Lu.solve_transposed q1_f (M.row rhs i))
          done;
          delta := M.max_abs (M.sub x !r);
          (match observe with
          | None -> ()
          | Some obs -> obs ~iteration:!iters ~residual:!delta ());
          r := x
        done;
        (!r, !iters, !delta))
  in
  if delta > tol then
    raise (Solve_error (No_convergence { iterations; delta }));
  (r, iterations)

let neg_cm m = CM.scale (Urs_linalg.Cx.of_float (-1.0)) m

let solve_inner ~tol ~max_iter q =
  let env = Qbd.env q in
  let n_servers = Environment.servers env in
  let s = Qbd.s q in
  let verdict = Stability.check ~env ~lambda:(Qbd.lambda q) ~mu:(Qbd.mu q) in
  if not verdict.Stability.stable then Error (Unstable verdict)
  else begin
    try
      let r, iterations = compute_r ~tol ~max_iter q in
      (* boundary: same elimination as the spectral method with
         Φ0 = I and Φ1 = Rᵀ *)
      let bt = CM.of_real (M.transpose (Qbd.b q)) in
      let ct_full = CM.of_real (M.transpose (Qbd.q2 q)) in
      let tt j = CM.of_real (M.transpose (Qbd.transition_block q j)) in
      let ss = Array.make (max 0 (n_servers - 1)) (CM.create 0 0) in
      let prev = ref None in
      for j = 0 to n_servers - 2 do
        let mj =
          match !prev with
          | None -> tt j
          | Some s_prev -> CM.add (CM.mul bt s_prev) (tt j)
        in
        let f = Clu.factor_exn mj in
        let cj1 = CM.of_real (M.transpose (Qbd.c q (j + 1))) in
        let s_j = Clu.solve_matrix f (neg_cm cj1) in
        ss.(j) <- s_j;
        prev := Some s_j
      done;
      let m_last =
        match !prev with
        | None -> tt (n_servers - 1)
        | Some s_prev -> CM.add (CM.mul bt s_prev) (tt (n_servers - 1))
      in
      let w = Clu.solve_matrix (Clu.factor_exn m_last) (neg_cm ct_full) in
      let rt = CM.of_real (M.transpose r) in
      let m_final =
        CM.add (CM.mul bt w) (CM.add (tt n_servers) (CM.mul ct_full rt))
      in
      let g = Clu.null_vector m_final in
      let xs = Array.make n_servers (CV.create s) in
      xs.(n_servers - 1) <- CM.mul_vec w g;
      for j = n_servers - 2 downto 0 do
        xs.(j) <- CM.mul_vec ss.(j) xs.(j + 1)
      done;
      (* normalization: Σ_{j<N} v_j·1 + v_N (I−R)⁻¹·1 = 1 *)
      let i_minus_r = M.sub (M.identity s) r in
      let i_minus_r_f =
        match Lu.factor i_minus_r with
        | Ok f -> f
        | Error `Singular ->
            raise (Solve_error (Numerical "I - R singular (load too high?)"))
      in
      let ones = Array.make s 1.0 in
      let tail_weights = Lu.solve i_minus_r_f ones in
      (* (I−R)⁻¹ 1 *)
      let g_tail =
        let acc = ref Urs_linalg.Cx.zero in
        for i = 0 to s - 1 do
          acc :=
            Urs_linalg.Cx.add !acc
              (Urs_linalg.Cx.scale tail_weights.(i) g.(i))
        done;
        !acc
      in
      let total =
        Array.fold_left (fun acc x -> Urs_linalg.Cx.add acc (CV.sum x)) g_tail xs
      in
      if Urs_linalg.Cx.modulus total < 1e-300 then
        raise (Solve_error (Numerical "normalization constant vanished"));
      let inv_total = Urs_linalg.Cx.inv total in
      let realize x =
        let scaled = CV.scale inv_total x in
        let imag = V.norm_inf (CV.imag_part scaled) in
        if imag > 1e-6 then
          raise
            (Solve_error
               (Numerical
                  (Printf.sprintf "imaginary residue %.2e in boundary" imag)));
        CV.real_part scaled
      in
      let boundary = Array.map realize xs in
      let v_n = realize g in
      Ok { qbd = q; r; iterations; boundary; v_n; rho = nan }
    with
    | Solve_error e -> Error e
    | Clu.Singular | Lu.Singular ->
        Error (Numerical "singular block during elimination")
  end

let qbd t = t.qbd

let r_matrix t = M.copy t.r

let r_iterations t = t.iterations

(* sp(R) by 200 steps of power iteration *)
let power_radius r =
  let x = ref (Array.make r.M.rows 1.0) in
  let lam = ref 0.0 in
  for _ = 1 to 200 do
    let y = M.mul_vec r !x in
    let norm = V.norm_inf y in
    if norm > 0.0 then begin
      lam := norm;
      x := V.scale (1.0 /. norm) y
    end
  done;
  !lam

let spectral_radius_estimate t = t.rho

let num_servers t = Environment.servers (Qbd.env t.qbd)

let solve ?(tol = 1e-13) ?(max_iter = 200_000) q =
  let t0 = Span.now () in
  let result =
    Span.with_ ~name:"urs_mg_solve" (fun () -> solve_inner ~tol ~max_iter q)
  in
  let wall = Span.now () -. t0 in
  let result =
    Result.map (fun sol -> { sol with rho = power_radius sol.r }) result
  in
  let outcome, summary =
    match result with
    | Ok sol ->
        Metrics.set m_dominant sol.rho;
        ( "ok",
          [
            ("spectral_radius", Json.Float sol.rho);
            ("r_iterations", Json.Int sol.iterations);
          ] )
    | Error e ->
        ("error", [ ("error", Json.String (Format.asprintf "%a" pp_error e)) ])
  in
  Ledger.record ~kind:"mg.solve" ~strategy:"mg" ~params:(Qbd.ledger_params q)
    ~wall_seconds:wall ~outcome ~summary ();
  result

let vector_at t j =
  if j < 0 then invalid_arg "Matrix_geometric: negative level";
  if j < num_servers t then V.copy t.boundary.(j)
  else begin
    let v = ref (V.copy t.v_n) in
    for _ = 1 to j - num_servers t do
      v := M.vec_mul !v t.r
    done;
    !v
  end

let probability t ~mode ~jobs =
  if mode < 0 || mode >= Qbd.s t.qbd then
    invalid_arg "Matrix_geometric.probability: bad mode";
  if jobs < 0 then 0.0 else (vector_at t jobs).(mode)

let level_probability t j = if j < 0 then 0.0 else V.sum (vector_at t j)

let tail_solve t =
  let s = Qbd.s t.qbd in
  let i_minus_r = M.sub (M.identity s) t.r in
  Lu.factor_exn i_minus_r

let mean_queue_length t =
  let n = num_servers t in
  let s = Qbd.s t.qbd in
  let head = ref 0.0 in
  for j = 1 to n - 1 do
    head := !head +. (float_of_int j *. V.sum t.boundary.(j))
  done;
  (* Σ_{r>=0} (N+r) v_N Rʳ·1 = v_N [N(I−R)⁻¹ + R(I−R)⁻²]·1 *)
  let f = tail_solve t in
  let ones = Array.make s 1.0 in
  let w1 = Lu.solve f ones in
  (* (I−R)⁻¹ 1 *)
  let w2 = Lu.solve f (M.mul_vec t.r w1) in
  (* R(I−R)⁻² 1... careful with order *)
  let acc = ref 0.0 in
  for i = 0 to s - 1 do
    acc := !acc +. (t.v_n.(i) *. ((float_of_int n *. w1.(i)) +. w2.(i)))
  done;
  !head +. !acc

let mean_response_time t = mean_queue_length t /. Qbd.lambda t.qbd

let mode_marginals t =
  let n = num_servers t in
  let s = Qbd.s t.qbd in
  let f = tail_solve t in
  (* v_N (I−R)⁻¹ as a row vector: solve yᵀ(I−R) = v_N ⇒ (I−R)ᵀ y = v_N *)
  let tail = Lu.solve_transposed f t.v_n in
  Array.init s (fun i ->
      let head = ref 0.0 in
      for j = 0 to n - 1 do
        head := !head +. t.boundary.(j).(i)
      done;
      !head +. tail.(i))
