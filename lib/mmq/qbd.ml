module M = Urs_linalg.Matrix

type t = {
  env : Environment.t;
  lambda : float;
  mu : float;
  a : M.t;
  b : M.t;
  d_a : M.t;
  c_full : M.t; (* C_j for j >= N *)
  q1 : M.t; (* T_N = A − D^A − B − C, the coefficient Q1 of Q(z) *)
  band_lo : int array; (* per row, the first and last column where B, *)
  band_hi : int array; (* Q1 or C is nonzero: Q(z)'s windows *)
}

let create ~env ~lambda ~mu =
  if lambda <= 0.0 || mu <= 0.0 then
    invalid_arg "Qbd.create: lambda and mu must be positive";
  let s = Environment.num_modes env in
  let a = Environment.transition_matrix env in
  let b = M.scalar s lambda in
  let d_a = M.diagonal (M.row_sums a) in
  let n = Environment.servers env in
  let c_full =
    M.init s s (fun i j ->
        if i = j then
          float_of_int (min (Environment.operative_servers env i) n) *. mu
        else 0.0)
  in
  (* element by element in the order of [transition_block], so Q1 is
     bit-identical to T_N *)
  let q1 = M.create s s in
  for k = 0 to (s * s) - 1 do
    q1.M.data.(k) <-
      ((a.M.data.(k) -. d_a.M.data.(k)) -. b.M.data.(k)) -. c_full.M.data.(k)
  done;
  let band_lo = Array.make s 0 and band_hi = Array.make s (-1) in
  let bd = b.M.data and qd = q1.M.data and cd = c_full.M.data in
  for i = 0 to s - 1 do
    let ri = i * s in
    let j = ref ri in
    while !j < ri + s && bd.(!j) = 0.0 && qd.(!j) = 0.0 && cd.(!j) = 0.0 do
      incr j
    done;
    band_lo.(i) <- !j - ri;
    let j = ref (ri + s - 1) in
    while !j >= ri && bd.(!j) = 0.0 && qd.(!j) = 0.0 && cd.(!j) = 0.0 do
      decr j
    done;
    band_hi.(i) <- !j - ri
  done;
  { env; lambda; mu; a; b; d_a; c_full; q1; band_lo; band_hi }

let env t = t.env

let lambda t = t.lambda

let mu t = t.mu

let s t = Environment.num_modes t.env

let ledger_params t =
  Urs_obs.Json.
    [
      ("servers", Int (Environment.servers t.env));
      ("modes", Int (s t));
      ("lambda", Float t.lambda);
      ("mu", Float t.mu);
    ]

let a t = M.copy t.a

let b t = M.copy t.b

let d_a t = M.copy t.d_a

let c t j =
  if j < 0 then invalid_arg "Qbd.c: negative level";
  if j >= Environment.servers t.env then M.copy t.c_full
  else
    M.init (s t) (s t) (fun i k ->
        if i = k then
          float_of_int (min (Environment.operative_servers t.env i) j) *. t.mu
        else 0.0)

let c_diag t j =
  if j < 0 then invalid_arg "Qbd.c_diag: negative level";
  Array.init (s t) (fun i ->
      float_of_int
        (min (Environment.operative_servers t.env i)
           (min j (Environment.servers t.env)))
      *. t.mu)

let transition_block t j = M.sub (M.sub (M.sub t.a t.d_a) t.b) (c t j)

(* element by element in the order of [transition_block] *)
let transition_diag t j =
  let cj = c_diag t j in
  Array.init (s t) (fun i ->
      ((M.get t.a i i -. M.get t.d_a i i) -. M.get t.b i i) -. cj.(i))

let q0 t = b t

let q1 t = M.copy t.q1

let q2 t = M.copy t.c_full

let char_poly_at t z =
  Urs_linalg.Companion.evaluate ~q0:t.b ~q1:t.q1 ~q2:t.c_full z

let char_poly_real t z w =
  let sm = s t in
  let d = Urs_linalg.Lu.reset w ~lo:t.band_lo ~hi:t.band_hi in
  let b = t.b.M.data and q1 = t.q1.M.data and c = t.c_full.M.data in
  let z2 = z *. z in
  (* as (B + z·T) + z²·C: another association moves the root that
     Geometric finds by scanning [det_q_scaled] in its last bits *)
  for i = 0 to sm - 1 do
    let ri = i * sm in
    for k = ri + t.band_lo.(i) to ri + t.band_hi.(i) do
      d.(k) <- (b.(k) +. (z *. q1.(k))) +. (z2 *. c.(k))
    done
  done

let det_q_scaled t w z =
  char_poly_real t z w;
  let log_det, sign = Urs_linalg.Lu.log_abs_det w in
  if sign = 0 then 0.0
  else float_of_int sign *. exp (log_det /. float_of_int (s t))

let eigenpair_residual t z u =
  let norm_u = Urs_linalg.Cvec.norm_inf u in
  if norm_u = 0.0 then infinity
  else
    Urs_linalg.Cvec.norm_inf (Urs_linalg.Cmatrix.vec_mul u (char_poly_at t z))
    /. norm_u

(* v_{j−1}B + v_j T_j + v_{j+1}C_{j+1} without building T_j or C_{j+1}:
   B and C_{j+1} are diagonal, and T_j equals Q1 = T_N off the diagonal.
   The products accumulate in the order of [M.vec_mul] and the diagonal
   of T_j is formed as in [transition_block], so the value is the one
   the explicit blocks give. *)
let generator_residual t vs j =
  match vs with
  | [| v_prev; v_j; v_next |] ->
      let sm = s t in
      let tj = transition_diag t j and cj1 = c_diag t (j + 1) in
      let q1 = t.q1.M.data in
      let mid = Array.make sm 0.0 in
      for i = 0 to sm - 1 do
        let vi = v_j.(i) in
        if vi <> 0.0 then begin
          let ri = i * sm in
          for k = 0 to sm - 1 do
            let tik = if k = i then tj.(i) else q1.(ri + k) in
            mid.(k) <- mid.(k) +. (vi *. tik)
          done
        end
      done;
      let worst = ref 0.0 in
      for k = 0 to sm - 1 do
        let r =
          (v_prev.(k) *. t.lambda) +. (mid.(k) +. (v_next.(k) *. cj1.(k)))
        in
        if abs_float r > !worst then worst := abs_float r
      done;
      !worst
  | _ -> invalid_arg "Qbd.generator_residual: expected three vectors"
