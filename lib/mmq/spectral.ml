module M = Urs_linalg.Matrix
module V = Urs_linalg.Vec
module CM = Urs_linalg.Cmatrix
module CV = Urs_linalg.Cvec
module Cx = Urs_linalg.Cx
module Clu = Urs_linalg.Clu

let log_src = Logs.Src.create "urs.spectral" ~doc:"spectral expansion solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Metrics = Urs_obs.Metrics
module Span = Urs_obs.Span
module Ledger = Urs_obs.Ledger
module Json = Urs_obs.Json

let m_solves =
  Metrics.counter ~help:"Spectral solve attempts" "urs_spectral_solves_total"

let m_failures =
  Metrics.counter ~help:"Spectral solves that returned an error"
    "urs_spectral_failures_total"

(* Result-summary gauges have last-write semantics (see Metrics.mli):
   under a sweep they describe the final point only, with the per-solve
   history going to the ledger. They are labelled by solver strategy so
   the approximate and matrix-geometric solvers can publish comparable
   values side by side. *)

let strategy_labels = [ ("strategy", "exact") ]

let m_eigenvalues =
  Metrics.gauge ~labels:strategy_labels
    ~help:"Eigenvalues found inside the unit disk (last solve)"
    "urs_spectral_eigenvalues"

let m_dominant =
  Metrics.gauge ~labels:strategy_labels
    ~help:"Dominant eigenvalue z_s (last successful solve)"
    "urs_spectral_dominant_z"

let m_residual =
  Metrics.gauge ~labels:strategy_labels
    ~help:"A-posteriori balance/normalization residual (last successful solve)"
    "urs_spectral_residual"

let m_lu =
  Metrics.counter
    ~help:"Real LU factorizations during boundary elimination"
    "urs_spectral_lu_factorizations_total"

let m_conj =
  Metrics.counter
    ~help:"Left eigenvectors obtained via the conjugate-pair shortcut"
    "urs_spectral_conjugate_shortcuts_total"

let m_qr_sweeps =
  Metrics.counter ~help:"Francis QR double-shift sweeps"
    "urs_qr_sweeps_total"

type error =
  | Unstable of Stability.verdict
  | Eigenvalue_count of { expected : int; found : int }
  | Numerical of string

let pp_error ppf = function
  | Unstable v -> Format.fprintf ppf "queue is unstable: %a" Stability.pp_verdict v
  | Eigenvalue_count { expected; found } ->
      Format.fprintf ppf
        "expected %d eigenvalues inside the unit disk, found %d" expected found
  | Numerical msg -> Format.fprintf ppf "numerical failure: %s" msg

type t = {
  qbd : Qbd.t;
  zs : Cx.t array; (* eigenvalues inside the unit disk, ascending modulus *)
  us : CV.t array; (* matching left eigenvectors of Q(z) *)
  u_sums : Cx.t array; (* u_k · 1 *)
  gammas : Cx.t array;
  boundary : V.t array; (* v_0 .. v_{N-1} *)
  boundary_condition : float;
      (* worst pivot-ratio estimate over the boundary LU factorizations *)
  residual : float; (* filled by [solve] once its span has closed *)
}

let qbd t = t.qbd

let eigenvalues t = Array.copy t.zs

let dominant_eigenvalue t = Cx.re t.zs.(Array.length t.zs - 1)

let boundary_vectors t = Array.map V.copy t.boundary

(* z^e for e >= 0 by square-and-multiply, shared by the boundary
   elimination and the level queries *)
let cx_pow z e =
  let rec go acc base e =
    if e = 0 then acc
    else if e land 1 = 1 then go (Cx.mul acc base) (Cx.mul base base) (e asr 1)
    else go acc (Cx.mul base base) (e asr 1)
  in
  go Cx.one z e

(* ---- solving ---- *)

exception Solve_error of error

(* the QR sweep cap forwarded to the companion eigensolve; kept in sync
   with the Qr_eig default so the convergence recorder can report the
   effective cap even when the caller does not override it *)
let default_qr_max_iter = 100

(* the unit-circle exclusion band used to classify the companion's
   eigenvalues as inside the unit disk *)
let eig_tol = 1e-9

let solve_stages ?max_iter q =
  let env = Qbd.env q in
  let n_servers = Environment.servers env in
  let s = Qbd.s q in
  let verdict =
    Stability.check ~env ~lambda:(Qbd.lambda q) ~mu:(Qbd.mu q)
  in
  if not verdict.Stability.stable then Error (Unstable verdict)
  else begin
    try
      let q0 = Qbd.q0 q and q1 = Qbd.q1 q and q2 = Qbd.q2 q in
      let qr_max_iter = Option.value max_iter ~default:default_qr_max_iter in
      let zs =
        Span.with_ ~name:"urs_spectral_stage"
          ~labels:[ ("stage", "eigenvalues") ]
          (fun () ->
            let sweeps_before = Urs_linalg.Qr_eig.total_sweeps () in
            Fun.protect
              ~finally:(fun () ->
                Metrics.inc
                  ~by:
                    (float_of_int
                       (Urs_linalg.Qr_eig.total_sweeps () - sweeps_before))
                  m_qr_sweeps)
              (fun () ->
                try
                  (* the per-sweep callback reads values the sweep
                     already computed, keeping results bit-identical *)
                  Urs_obs.Convergence.track ~max_iter:qr_max_iter ~solver:"qr"
                    ~label:(fun () ->
                      Printf.sprintf "spectral N=%d s=%d" n_servers s)
                    ~callback:(fun obs (p : Urs_linalg.Qr_eig.progress) ->
                      obs ~iteration:p.total ~residual:p.residual
                        ~shift:p.shift ~active:p.remaining
                        ~deflation:(p.event = Urs_linalg.Qr_eig.Deflate)
                        ())
                    ~converged:(fun _ -> true)
                    (fun observe ->
                      Urs_linalg.Companion.eigenvalues_inside_unit_disk
                        ~tol:eig_tol ~max_iter:qr_max_iter ?observe ~q0 ~q1
                        ~q2 ())
                with
                | Urs_linalg.Qr_eig.No_convergence { dim; block; iterations }
                  ->
                    raise
                      (Solve_error
                         (Numerical
                            (Printf.sprintf
                               "QR iteration did not converge (%dx%d \
                                companion matrix, trailing block %d stuck \
                                after %d sweeps)"
                               dim dim block iterations)))
                | Urs_linalg.Lu.Singular ->
                    raise (Solve_error (Numerical "singular arrival block"))))
      in
      Metrics.set m_eigenvalues (float_of_int (Array.length zs));
      if Array.length zs <> s then begin
        Log.warn (fun m ->
            m "expected %d eigenvalues inside the unit disk, found %d" s
              (Array.length zs));
        raise
          (Solve_error (Eigenvalue_count { expected = s; found = Array.length zs }))
      end;
      Log.debug (fun m ->
          m "N=%d s=%d: %d eigenvalues inside the unit disk, z_max=%.6f"
            n_servers s (Array.length zs)
            (Cx.modulus zs.(Array.length zs - 1)));
      (* left eigenvectors of Q(z_k). A real eigenvalue (the QR step
         returns its imaginary part as exactly 0) has a real Q(z_k) and
         a real eigenvector, found in real arithmetic. Conjugate
         eigenvalues have conjugate eigenvectors (Q has real
         coefficients), so each complex pair is computed only once. *)
      let us =
        Span.with_ ~name:"urs_spectral_stage"
          ~labels:[ ("stage", "eigenvectors") ]
          (fun () ->
            let us = Array.make s [||] in
            (* one workspace for every real Q(z_k), factored in place *)
            let work = Urs_linalg.Lu.workspace s in
            for k = 0 to s - 1 do
              let z = zs.(k) in
              if Cx.im z = 0.0 then begin
                Qbd.char_poly_real q (Cx.re z) work;
                us.(k) <-
                  CV.normalize
                    (CV.of_real (Urs_linalg.Lu.left_null_vector work))
              end
              else if Cx.im z > 0.0 then
                us.(k) <- Clu.left_null_vector (Qbd.char_poly_at q z)
            done;
            for k = 0 to s - 1 do
              if Cx.im zs.(k) < 0.0 then begin
                (* find the conjugate partner (pairs are adjacent after the
                   modulus sort, but search defensively) *)
                let partner = ref (-1) in
                let zc = Cx.conj zs.(k) in
                for k' = 0 to s - 1 do
                  if
                    !partner < 0
                    && Cx.im zs.(k') > 0.0
                    && Cx.modulus (Cx.sub zs.(k') zc)
                       <= 1e-12 *. (1.0 +. Cx.modulus zc)
                  then partner := k'
                done;
                if !partner >= 0 then begin
                  Metrics.inc m_conj;
                  us.(k) <- Array.map Cx.conj us.(!partner)
                end
                else us.(k) <- Clu.left_null_vector (Qbd.char_poly_at q zs.(k))
              end
            done;
            us)
      in
      (* Φ_r has column k equal to z_k^{N+r} u_kᵀ, so v_{N+r}ᵀ = Φ_r γᵀ.
         Represent complex matrices as (re, im) pairs of real matrices:
         every block in the boundary elimination except Φ is real
         (Bᵀ = λI and C_j is diagonal), so the expensive factorizations
         stay in real arithmetic. *)
      let lambda = Qbd.lambda q in
      let worst_cond = ref 1.0 in
      let note_cond f =
        worst_cond := Float.max !worst_cond (Urs_linalg.Lu.pivot_condition f);
        f
      in
      let g, xs =
        Span.with_ ~name:"urs_spectral_stage"
          ~labels:[ ("stage", "boundary") ]
          (fun () ->
            let phi r =
              let re = M.create s s and im = M.create s s in
              for k = 0 to s - 1 do
                let zp = cx_pow zs.(k) (n_servers + r) in
                for i = 0 to s - 1 do
                  let v = Cx.mul zp us.(k).(i) in
                  M.set re i k (Cx.re v);
                  M.set im i k (Cx.im v)
                done
              done;
              (re, im)
            in
            let phi0_re, phi0_im = phi 0 in
            let phi1_re, phi1_im = phi 1 in
            let module Lu = Urs_linalg.Lu in
            (* M_j = λS_{j−1} + T_jᵀ, filled in one pass into one
               workspace and factored there in place: T_jᵀ equals Q1ᵀ
               off the diagonal, and its diagonal comes from
               [Qbd.transition_diag]. Each entry is (λ·s) + t, the value
               of forming λS_{j−1} and T_jᵀ as matrices and adding them.
               Every window spans its row, as in [Lu.factor]. *)
            let q1t = M.transpose q1 in
            let work = Lu.workspace s in
            let full_lo = Array.make s 0 and full_hi = Array.make s (s - 1) in
            let level_factor j s_prev =
              let tj = Qbd.transition_diag q j in
              let d = Lu.reset work ~lo:full_lo ~hi:full_hi
              and t = q1t.M.data in
              for i = 0 to s - 1 do
                let ri = i * s in
                for k = 0 to s - 1 do
                  let tik = if k = i then tj.(i) else t.(ri + k) in
                  d.(ri + k) <-
                    (match s_prev with
                    | None -> tik
                    | Some sp -> (lambda *. sp.M.data.(ri + k)) +. tik)
                done
              done;
              Metrics.inc m_lu;
              match Lu.factor_in_place work with
              | Ok f -> note_cond f
              | Error `Singular ->
                  raise (Solve_error (Numerical "singular boundary block"))
            in
            (* forward elimination of the block-tridiagonal boundary system:
               S_j = −M_j⁻¹ C_{j+1}ᵀ, all real; C_{j+1} is diagonal, so
               S_j is the inverse with its columns scaled *)
            let ss = Array.make (max 0 (n_servers - 1)) (M.create 0 0) in
            let prev = ref None in
            for j = 0 to n_servers - 2 do
              let f = level_factor j !prev in
              let s_j =
                Lu.solve_diagonal f (V.scale (-1.0) (Qbd.c_diag q (j + 1)))
              in
              ss.(j) <- s_j;
              prev := Some s_j
            done;
            (* level N-1 equation: x_{N-1} = W γᵀ with
               W = −M_last⁻¹ (C Φ0) (C diagonal) *)
            let f_last = level_factor (n_servers - 1) !prev in
            let c_full_diag = Qbd.c_diag q n_servers in
            let scale_rows_neg d m =
              M.init s s (fun i j -> -.d.(i) *. M.get m i j)
            in
            let w_re =
              Lu.solve_matrix f_last (scale_rows_neg c_full_diag phi0_re)
            in
            let w_im =
              Lu.solve_matrix f_last (scale_rows_neg c_full_diag phi0_im)
            in
            (* level N equation: [λW + T_Nᵀ Φ0 + C Φ1] γᵀ = 0, with
               T_N = Q1 *)
            let tp_re = M.mul q1t phi0_re and tp_im = M.mul q1t phi0_im in
            let m_gamma =
              CM.init s s (fun i j ->
                  let level w tp phi1 =
                    (lambda *. M.get w i j)
                    +. (M.get tp i j +. (c_full_diag.(i) *. M.get phi1 i j))
                  in
                  Cx.make (level w_re tp_re phi1_re) (level w_im tp_im phi1_im))
            in
            let g = Clu.null_vector m_gamma in
            (* back substitution: x_{N-1} = W g, then x_j = S_j x_{j+1} *)
            let g_re = CV.real_part g and g_im = CV.imag_part g in
            let complex_apply re im vr vi =
              (* (re + i·im)(vr + i·vi) *)
              let a = M.mul_vec re vr and b = M.mul_vec im vi in
              let c = M.mul_vec re vi and d = M.mul_vec im vr in
              Array.init s (fun i -> Cx.make (a.(i) -. b.(i)) (c.(i) +. d.(i)))
            in
            let real_apply m v =
              let vr = M.mul_vec m (CV.real_part v) in
              let vi = M.mul_vec m (CV.imag_part v) in
              Array.init s (fun i -> Cx.make vr.(i) vi.(i))
            in
            let xs = Array.make n_servers (CV.create s) in
            xs.(n_servers - 1) <- complex_apply w_re w_im g_re g_im;
            for j = n_servers - 2 downto 0 do
              xs.(j) <- real_apply ss.(j) xs.(j + 1)
            done;
            (g, xs))
      in
      (* normalization (eq. 20): Σ_{j<N} x_j·1 + Σ_k γ_k (u_k·1) z^N/(1−z) *)
      Span.with_ ~name:"urs_spectral_stage"
        ~labels:[ ("stage", "normalization") ]
        (fun () ->
          let u_sums = Array.map CV.sum us in
          let spectral_total =
            let acc = ref Cx.zero in
            for k = 0 to s - 1 do
              let zn = cx_pow zs.(k) n_servers in
              let term =
                Cx.div
                  (Cx.mul g.(k) (Cx.mul u_sums.(k) zn))
                  (Cx.sub Cx.one zs.(k))
              in
              acc := Cx.add !acc term
            done;
            !acc
          in
          let total =
            Array.fold_left
              (fun acc x -> Cx.add acc (CV.sum x))
              spectral_total xs
          in
          if Cx.modulus total < 1e-300 then
            raise (Solve_error (Numerical "normalization constant vanished"));
          let inv_total = Cx.inv total in
          let gammas = Array.map (fun gk -> Cx.mul gk inv_total) g in
          let boundary =
            Array.map
              (fun x ->
                let scaled = CV.scale inv_total x in
                let imag = V.norm_inf (CV.imag_part scaled) in
                if imag > 1e-6 then
                  raise
                    (Solve_error
                       (Numerical
                          (Printf.sprintf
                             "boundary vector has imaginary residue %.2e" imag)));
                CV.real_part scaled)
              xs
          in
          (* sanity: boundary probabilities must be (essentially)
             nonnegative *)
          Array.iter
            (fun v ->
              Array.iter
                (fun p ->
                  if p < -1e-8 then
                    raise
                      (Solve_error
                         (Numerical
                            (Printf.sprintf "negative probability %.3e" p))))
                v)
            boundary;
          Ok
            {
              qbd = q;
              zs;
              us;
              u_sums;
              gammas;
              boundary;
              boundary_condition = !worst_cond;
              residual = nan;
            })
    with
    | Solve_error e -> Error e
    | Clu.Singular -> Error (Numerical "singular block during elimination")
  end

(* ---- queries ---- *)

let num_servers t = Environment.servers (Qbd.env t.qbd)

let powers t j = Array.map (fun z -> cx_pow z j) t.zs

(* Re Σ_k γ_k f(k) z_k^j for a complex weight f, given zj = powers t j *)
let spectral_sum t ~weight zj =
  let acc = ref Cx.zero in
  for k = 0 to Array.length t.zs - 1 do
    acc := Cx.add !acc (Cx.mul t.gammas.(k) (Cx.mul (weight k) zj.(k)))
  done;
  Cx.re !acc

let vector_at t j =
  if j < 0 then invalid_arg "Spectral: negative level";
  if j < num_servers t then V.copy t.boundary.(j)
  else
    let zj = powers t j in
    Array.init (Qbd.s t.qbd) (fun i ->
        spectral_sum t ~weight:(fun k -> t.us.(k).(i)) zj)

let probability t ~mode ~jobs =
  let s = Qbd.s t.qbd in
  if mode < 0 || mode >= s then invalid_arg "Spectral.probability: bad mode";
  if jobs < 0 then 0.0
  else if jobs < num_servers t then t.boundary.(jobs).(mode)
  else spectral_sum t ~weight:(fun k -> t.us.(k).(mode)) (powers t jobs)

let level_probability t j =
  if j < 0 then 0.0
  else if j < num_servers t then V.sum t.boundary.(j)
  else spectral_sum t ~weight:(fun k -> t.u_sums.(k)) (powers t j)

(* Σ_{j>=j0} z^j = z^{j0}/(1-z) *)
let tail_from t j0 ~weight =
  let acc = ref Cx.zero in
  for k = 0 to Array.length t.zs - 1 do
    let term =
      Cx.div
        (Cx.mul t.gammas.(k) (Cx.mul (weight k) (cx_pow t.zs.(k) j0)))
        (Cx.sub Cx.one t.zs.(k))
    in
    acc := Cx.add !acc term
  done;
  Cx.re !acc

let tail_probability t j0 =
  let n = num_servers t in
  if j0 <= 0 then 1.0
  else if j0 <= n then begin
    let head = ref 0.0 in
    for j = 0 to j0 - 1 do
      head := !head +. V.sum t.boundary.(j)
    done;
    1.0 -. !head
  end
  else tail_from t j0 ~weight:(fun k -> t.u_sums.(k))

let queue_length_quantile t p =
  if p <= 0.0 || p >= 1.0 then
    invalid_arg "Spectral.queue_length_quantile: p in (0,1)";
  (* walk up until the tail drops below 1-p; the tail is eventually
     geometric with ratio z_s < 1, so this terminates *)
  let rec go j =
    if tail_probability t (j + 1) <= 1.0 -. p then j else go (j + 1)
  in
  go 0

(* Σ_{j>=N} j z^j = z^N (N - (N-1) z) / (1-z)^2 *)
let mean_queue_length t =
  let n = num_servers t in
  let head = ref 0.0 in
  for j = 1 to n - 1 do
    head := !head +. (float_of_int j *. V.sum t.boundary.(j))
  done;
  let acc = ref Cx.zero in
  for k = 0 to Array.length t.zs - 1 do
    let z = t.zs.(k) in
    let zn = cx_pow t.zs.(k) n in
    let one_minus = Cx.sub Cx.one z in
    let numer =
      Cx.mul zn
        (Cx.sub (Cx.of_float (float_of_int n)) (Cx.scale (float_of_int (n - 1)) z))
    in
    let term =
      Cx.div
        (Cx.mul t.gammas.(k) (Cx.mul t.u_sums.(k) numer))
        (Cx.mul one_minus one_minus)
    in
    acc := Cx.add !acc term
  done;
  !head +. Cx.re !acc

let mean_response_time t = mean_queue_length t /. Qbd.lambda t.qbd

let mean_waiting_jobs t =
  mean_queue_length t -. (Qbd.lambda t.qbd /. Qbd.mu t.qbd)

let mean_waiting_time t = mean_waiting_jobs t /. Qbd.lambda t.qbd

let mode_marginals t =
  let s = Qbd.s t.qbd in
  let n = num_servers t in
  Array.init s (fun i ->
      let head = ref 0.0 in
      for j = 0 to n - 1 do
        head := !head +. t.boundary.(j).(i)
      done;
      !head +. tail_from t n ~weight:(fun k -> t.us.(k).(i)))

let mean_busy_servers t =
  let env = Qbd.env t.qbd in
  let s = Qbd.s t.qbd in
  let n = num_servers t in
  let acc = ref 0.0 in
  for j = 1 to n - 1 do
    for i = 0 to s - 1 do
      acc :=
        !acc
        +. (float_of_int (min (Environment.operative_servers env i) j)
           *. t.boundary.(j).(i))
    done
  done;
  (* levels j >= N serve at the full operative count of the mode *)
  for i = 0 to s - 1 do
    acc :=
      !acc
      +. (float_of_int (Environment.operative_servers env i)
         *. tail_from t n ~weight:(fun k -> t.us.(k).(i)))
  done;
  !acc

let mass_defect t =
  (* probability-mass conservation over the full horizon via tails *)
  let n = num_servers t in
  let head = ref 0.0 in
  for j = 0 to n - 1 do
    head := !head +. V.sum t.boundary.(j)
  done;
  let total = !head +. tail_from t n ~weight:(fun k -> t.u_sums.(k)) in
  abs_float (total -. 1.0)

let balance_residual t =
  let n = num_servers t in
  (* vs.(j + 1) = v_j for j = −1 .. N+3, each level computed once *)
  let vs =
    Array.init (n + 5) (fun j ->
        if j = 0 then V.create (Qbd.s t.qbd) else vector_at t (j - 1))
  in
  let worst = ref 0.0 in
  for j = 0 to n + 2 do
    worst :=
      Float.max !worst (Qbd.generator_residual t.qbd (Array.sub vs j 3) j)
  done;
  Float.max !worst (mass_defect t)

let eigen_residuals t =
  Array.mapi (fun k z -> Qbd.eigenpair_residual t.qbd z t.us.(k)) t.zs

let max_eigen_residual t =
  Array.fold_left Float.max 0.0 (eigen_residuals t)

let boundary_condition t = t.boundary_condition

let residual t = t.residual

(* public entry point: the staged solve wrapped in a span, then the
   residual (an accuracy certificate, cheap next to the companion
   eigensolve), the summary gauges and one ledger record *)
let solve ?max_iter q =
  Metrics.inc m_solves;
  let t0 = Span.now () in
  let staged =
    Span.with_ ~name:"urs_spectral_solve" (fun () -> solve_stages ?max_iter q)
  in
  let wall = Span.now () -. t0 in
  let result =
    Result.map (fun sol -> { sol with residual = balance_residual sol }) staged
  in
  let outcome, summary =
    match result with
    | Ok sol ->
        Metrics.set m_dominant (dominant_eigenvalue sol);
        Metrics.set m_residual sol.residual;
        ( "ok",
          [
            ("eigenvalues", Json.Int (Array.length sol.zs));
            ("dominant_z", Json.Float (dominant_eigenvalue sol));
            ("residual", Json.Float sol.residual);
            ("boundary_condition", Json.Float sol.boundary_condition);
          ] )
    | Error e ->
        Metrics.inc m_failures;
        Log.info (fun m -> m "spectral solve failed: %a" pp_error e);
        ("error", [ ("error", Json.String (Format.asprintf "%a" pp_error e)) ])
  in
  Ledger.record ~kind:"spectral.solve" ~strategy:"exact"
    ~params:(Qbd.ledger_params q) ~wall_seconds:wall ~outcome ~summary ();
  result
