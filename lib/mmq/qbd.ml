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
  reversible : bool; (* detailed balance on Q1's off-diagonal *)
}

(* Detailed balance π_i·a_ij = π_j·a_ji on the nonzeros of [a] (all
   inside Q1's band), in logarithms: log π spreads from mode 0 along
   the first edge that reaches each mode, and every other edge is held
   to it once, from its lower end. A one-way edge, an unreached mode or
   a defect above 1e-9 means not reversible. *)
let detailed_balance a band_lo band_hi =
  let s = a.M.rows and d = a.M.data in
  let log_pi = Array.make s nan in
  let queue = Array.make s 0 and tail = ref 1 in
  log_pi.(0) <- 0.0;
  let ok = ref (s > 0) and head = ref 0 in
  while !ok && !head < !tail do
    let i = queue.(!head) in
    incr head;
    for j = band_lo.(i) to band_hi.(i) do
      let aij = d.((i * s) + j) in
      if j <> i && aij <> 0.0 then begin
        let aji = d.((j * s) + i) in
        if not (aij > 0.0 && aji > 0.0) then ok := false
        else if Float.is_nan log_pi.(j) then begin
          log_pi.(j) <- log_pi.(i) +. log (aij /. aji);
          queue.(!tail) <- j;
          incr tail
        end
        else if
          j > i
          && abs_float (log_pi.(i) +. log (aij /. aji) -. log_pi.(j)) > 1e-9
        then ok := false
      end
    done
  done;
  !ok && !tail = s

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
  let reversible = detailed_balance a band_lo band_hi in
  { env; lambda; mu; a; b; d_a; c_full; q1; band_lo; band_hi; reversible }

let env t = t.env

let lambda t = t.lambda

let mu t = t.mu

let s t = Environment.num_modes t.env

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

(* Q(z) = A + iB as the real [[A, B], [−B, A]] with each mode's real
   and imaginary parts interleaved (row and column 2i, then 2i + 1), so
   row pair i spans columns 2·lo_i .. 2·hi_i + 1; A and B are formed as
   [char_poly_real] forms Q(z) *)
let char_poly_complex t z w =
  let sm = s t in
  let n = 2 * sm in
  let d =
    Urs_linalg.Lu.reset w
      ~lo:(Array.init n (fun r -> 2 * t.band_lo.(r / 2)))
      ~hi:(Array.init n (fun r -> (2 * t.band_hi.(r / 2)) + 1))
  in
  let b = t.b.M.data and q1 = t.q1.M.data and c = t.c_full.M.data in
  let x = Urs_linalg.Cx.re z and y = Urs_linalg.Cx.im z in
  let z2 = Urs_linalg.Cx.mul z z in
  let x2 = Urs_linalg.Cx.re z2 and y2 = Urs_linalg.Cx.im z2 in
  for i = 0 to sm - 1 do
    let ri = i * sm and re_row = 2 * i * n in
    let im_row = re_row + n in
    for k = t.band_lo.(i) to t.band_hi.(i) do
      let a = (b.(ri + k) +. (x *. q1.(ri + k))) +. (x2 *. c.(ri + k)) in
      let bi = (y *. q1.(ri + k)) +. (y2 *. c.(ri + k)) in
      d.(re_row + (2 * k)) <- a;
      d.(re_row + (2 * k) + 1) <- bi;
      d.(im_row + (2 * k)) <- -.bi;
      d.(im_row + (2 * k) + 1) <- a
    done
  done

let reversible t = t.reversible

(* off the diagonal, K = D^½·Q1·D^−½ has k_ij = √(a_ij·a_ji): with
   π_i·a_ij = π_j·a_ji, √(π_i/π_j)·a_ij is that root *)
let k_offdiag t i j =
  let sm = s t in
  sqrt (t.q1.M.data.((i * sm) + j) *. t.q1.M.data.((j * sm) + i))

let require_reversible name t =
  if not t.reversible then invalid_arg (name ^ ": environment not reversible")

(* K's half bandwidth: the band of Q1 is symmetric once [a] is *)
let k_bandwidth t =
  let kb = ref 0 in
  Array.iteri (fun i lo -> kb := max !kb (i - lo)) t.band_lo;
  !kb

let neg_qw t w =
  require_reversible "Qbd.neg_qw" t;
  let sm = s t in
  let kb = k_bandwidth t in
  let g = Urs_linalg.Cholesky.band ~n:sm ~p:kb in
  let q1 = t.q1.M.data and c = t.c_full.M.data in
  for i = 0 to sm - 1 do
    let ri = i * sm in
    for j = t.band_lo.(i) to i - 1 do
      if q1.(ri + j) <> 0.0 then
        Urs_linalg.Cholesky.set g i j (-.(w *. k_offdiag t i j))
    done;
    Urs_linalg.Cholesky.set g i i
      (-.((t.lambda *. w *. w) +. (w *. q1.(ri + i)) +. c.(ri + i)))
  done;
  g

let neg_linearization t mu =
  require_reversible "Qbd.neg_linearization" t;
  let sm = s t in
  let q1 = t.q1.M.data and c = t.c_full.M.data in
  (* x_i at pos.(i), then y_i right after it when c_i > 0 *)
  let pos = Array.make sm 0 and n = ref 0 in
  for i = 0 to sm - 1 do
    pos.(i) <- !n;
    n := !n + if c.((i * sm) + i) > 0.0 then 2 else 1
  done;
  let n = !n in
  let p = ref (if n > sm then 1 else 0) in
  for i = 0 to sm - 1 do
    for j = t.band_lo.(i) to i - 1 do
      if q1.((i * sm) + j) <> 0.0 then p := max !p (pos.(i) - pos.(j))
    done
  done;
  let g = Urs_linalg.Cholesky.band ~n ~p:!p in
  let coeff = Array.make n (-1.0) in
  for i = 0 to sm - 1 do
    let ri = i * sm and x = pos.(i) in
    coeff.(x) <- t.lambda;
    for j = t.band_lo.(i) to i - 1 do
      if q1.(ri + j) <> 0.0 then
        Urs_linalg.Cholesky.set g x pos.(j) (-.k_offdiag t i j)
    done;
    Urs_linalg.Cholesky.set g x x (-.((mu *. t.lambda) +. q1.(ri + i)));
    let ci = c.(ri + i) in
    if ci > 0.0 then begin
      Urs_linalg.Cholesky.set g (x + 1) x (-.sqrt ci);
      Urs_linalg.Cholesky.set g (x + 1) (x + 1) mu
    end
  done;
  (g, coeff)

let det_q_scaled t w z =
  char_poly_real t z w;
  let log_det, sign = Urs_linalg.Lu.log_abs_det w in
  if sign = 0 then 0.0
  else float_of_int sign *. exp (log_det /. float_of_int (s t))

(* u·Q(z) row by row over Q(z)'s band, each entry formed as
   Q0 + (Q1·z + Q2·z²) in complex arithmetic and each product summed in
   row order, skipping a zero u_i: outside the band every term is a
   zero, so the value is the one the whole complex matrix gives *)
let eigenpair_residual t z u =
  let module Cx = Urs_linalg.Cx in
  let norm_u = Urs_linalg.Cvec.norm_inf u in
  if norm_u = 0.0 then infinity
  else begin
    let sm = s t in
    let b = t.b.M.data and q1 = t.q1.M.data and c = t.c_full.M.data in
    let z2 = Cx.mul z z in
    let uq = Array.make sm Cx.zero in
    for i = 0 to sm - 1 do
      let ui = u.(i) in
      if Cx.re ui <> 0.0 || Cx.im ui <> 0.0 then begin
        let ri = i * sm in
        for k = t.band_lo.(i) to t.band_hi.(i) do
          let qik =
            Cx.add
              (Cx.of_float b.(ri + k))
              (Cx.add (Cx.scale q1.(ri + k) z) (Cx.scale c.(ri + k) z2))
          in
          uq.(k) <- Cx.add uq.(k) (Cx.mul ui qik)
        done
      end
    done;
    Urs_linalg.Cvec.norm_inf uq /. norm_u
  end

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

type boundary = {
  levels : Urs_linalg.Vec.t array;
  gamma : Urs_linalg.Vec.t;
  condition : float;
}

(* Forward elimination of the block-tridiagonal balance equations of
   levels 0 .. N−1, then the level-N equation for γ, then back
   substitution. Every block is real: Bᵀ = λI, C_j is diagonal and
   T_jᵀ equals Q1ᵀ off the diagonal. *)
let boundary t ~phi0 ~phi1 =
  let module Lu = Urs_linalg.Lu in
  let sm = s t and n_servers = Environment.servers t.env in
  let lambda = t.lambda in
  let q1t = M.transpose t.q1 in
  (* M_j = λS_{j−1} + T_jᵀ, filled in one pass into one workspace and
     factored there in place. Each entry is (λ·s) + t, the value of
     forming λS_{j−1} and T_jᵀ as matrices and adding them. Every
     window spans its row, as in [Lu.factor]. *)
  let work = Lu.workspace sm in
  let full_lo = Array.make sm 0 and full_hi = Array.make sm (sm - 1) in
  let condition = ref 1.0 in
  let level_factor j s_prev =
    let tj = transition_diag t j in
    let d = Lu.reset work ~lo:full_lo ~hi:full_hi and qt = q1t.M.data in
    for i = 0 to sm - 1 do
      let ri = i * sm in
      for k = 0 to sm - 1 do
        let tik = if k = i then tj.(i) else qt.(ri + k) in
        d.(ri + k) <-
          (match s_prev with
          | None -> tik
          | Some sp -> (lambda *. sp.M.data.(ri + k)) +. tik)
      done
    done;
    match Lu.factor_in_place work with
    | Ok f ->
        condition := Float.max !condition (Lu.pivot_condition f);
        f
    | Error `Singular -> raise Lu.Singular
  in
  try
    (* S_j = −M_j⁻¹ C_{j+1}ᵀ; C_{j+1} is diagonal, so S_j is the
       inverse with its columns scaled *)
    let ss = Array.make (max 0 (n_servers - 1)) (M.create 0 0) in
    let prev = ref None in
    for j = 0 to n_servers - 2 do
      let f = level_factor j !prev in
      let s_j =
        Lu.solve_diagonal f (Urs_linalg.Vec.scale (-1.0) (c_diag t (j + 1)))
      in
      ss.(j) <- s_j;
      prev := Some s_j
    done;
    (* level N−1: x_{N−1} = W γᵀ with W = −M_last⁻¹ (C Φ0); level N:
       [λW + T_Nᵀ Φ0 + C Φ1] γᵀ = 0, with T_N = Q1 *)
    let f_last = level_factor (n_servers - 1) !prev in
    let c_full_diag = c_diag t n_servers in
    let w =
      Lu.solve_matrix f_last
        (M.init sm sm (fun i j -> -.c_full_diag.(i) *. M.get phi0 i j))
    in
    let tp = M.mul q1t phi0 in
    let gamma =
      Lu.null_vector
        (M.init sm sm (fun i j ->
             (lambda *. M.get w i j)
             +. (M.get tp i j +. (c_full_diag.(i) *. M.get phi1 i j))))
    in
    (* back substitution: x_{N−1} = W γᵀ, then x_j = S_j x_{j+1} *)
    let levels = Array.make n_servers (M.mul_vec w gamma) in
    for j = n_servers - 2 downto 0 do
      levels.(j) <- M.mul_vec ss.(j) levels.(j + 1)
    done;
    Ok { levels; gamma; condition = !condition }
  with Lu.Singular -> Error `Singular
