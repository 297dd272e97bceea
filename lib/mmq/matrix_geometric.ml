module M = Urs_linalg.Matrix
module V = Urs_linalg.Vec
module Lu = Urs_linalg.Lu

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
  rho : float; (* sp(R) *)
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

let solve ?(tol = 1e-13) ?(max_iter = 200_000) q =
  let env = Qbd.env q in
  let s = Qbd.s q in
  let verdict = Stability.check ~env ~lambda:(Qbd.lambda q) ~mu:(Qbd.mu q) in
  if not verdict.Stability.stable then Error (Unstable verdict)
  else begin
    try
      let r, iterations = compute_r ~tol ~max_iter q in
      (* boundary: the spectral method's elimination with Φ0 = I and
         Φ1 = Rᵀ, so γ is v_N *)
      let b =
        match Qbd.boundary q ~phi0:(M.identity s) ~phi1:(M.transpose r) with
        | Ok b -> b
        | Error `Singular ->
            raise (Solve_error (Numerical "singular block during elimination"))
      in
      (* normalization: Σ_{j<N} v_j·1 + v_N (I−R)⁻¹·1 = 1 *)
      let i_minus_r_f =
        match Lu.factor (M.sub (M.identity s) r) with
        | Ok f -> f
        | Error `Singular ->
            raise (Solve_error (Numerical "I - R singular (load too high?)"))
      in
      let tail_weights = Lu.solve i_minus_r_f (Array.make s 1.0) in
      let total =
        Array.fold_left
          (fun acc x -> acc +. V.sum x)
          (V.dot tail_weights b.Qbd.gamma)
          b.Qbd.levels
      in
      if abs_float total < 1e-300 then
        raise (Solve_error (Numerical "normalization constant vanished"));
      let realize = V.scale (1.0 /. total) in
      Ok
        {
          qbd = q;
          r;
          iterations;
          boundary = Array.map realize b.Qbd.levels;
          v_n = realize b.Qbd.gamma;
          rho = power_radius r;
        }
    with
    | Solve_error e -> Error e
    | Lu.Singular -> Error (Numerical "singular block during elimination")
  end

let qbd t = t.qbd

let r_matrix t = M.copy t.r

let r_iterations t = t.iterations

let spectral_radius_estimate t = t.rho

let num_servers t = Environment.servers (Qbd.env t.qbd)

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
  (* R(I−R)⁻² 1 *)
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
