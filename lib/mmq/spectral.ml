module M = Urs_linalg.Matrix
module V = Urs_linalg.Vec
module CV = Urs_linalg.Cvec
module Cx = Urs_linalg.Cx
module Lu = Urs_linalg.Lu

let log_src = Logs.Src.create "urs.spectral" ~doc:"spectral expansion solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Metrics = Urs_obs.Metrics
module Span = Urs_obs.Span

(* The counters the benchmark's traced run reads beside the solver's
   spans; the record of a solve and its last-solve gauges are written
   by [Solver.evaluate]. *)

let m_lu =
  Metrics.counter
    ~help:"Real LU factorizations during boundary elimination"
    "urs_spectral_lu_factorizations_total"

let m_conj =
  Metrics.counter
    ~help:"Left eigenvectors obtained via the conjugate-pair shortcut"
    "urs_spectral_conjugate_shortcuts_total"

let m_qr_sweeps =
  Metrics.counter ~help:"eigenvalue-stage QR/QL sweeps" "urs_qr_sweeps_total"

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

type fallback = Not_reversible | No_gap_shift | Cholesky | Count | Ql_cap

type eig_path = Definite | Companion of fallback

let fallback_name = function
  | Not_reversible -> "not_reversible"
  | No_gap_shift -> "no_gap_shift"
  | Cholesky -> "cholesky"
  | Count -> "count"
  | Ql_cap -> "ql_cap"

type t = {
  qbd : Qbd.t;
  eig_path : eig_path;
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

let eig_path t = t.eig_path

let eigenvalues t = Array.copy t.zs

let dominant_eigenvalue t = Cx.re t.zs.(Array.length t.zs - 1)

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

(* The QR-family iterations of the eigenvalue stage, recorded as "qr"
   traces: the per-sweep callback reads values the sweep already
   computed, keeping results bit-identical. *)
let track_qr ~max_iter ~label kernel =
  Urs_obs.Convergence.track ~max_iter ~solver:"qr" ~label
    ~callback:(fun obs (p : Urs_linalg.Qr_eig.progress) ->
      obs ~iteration:p.total ~residual:p.residual ~shift:p.shift
        ~active:p.remaining
        ~deflation:(p.event = Urs_linalg.Qr_eig.Deflate)
        ())
    ~converged:(fun _ -> true)
    kernel

(* Eigenvalues of a reversible model from the definite linearization
   (Qbd's symmetric view): a shift μ in the gap (1, 1/z_s), found by
   Cholesky of −Q_w(1 + t) (t halved from 1 until it factors, the upper
   edge bisected six times, μ the gap's midpoint), then −L(μ) = G·Gᵀ,
   H = G⁻¹·diag(λI, −I)·G⁻ᵀ, Householder to tridiagonal form and
   implicit QL. L(w)v = 0 is (L(μ) + (w − μ)·diag(λI, −I))v = 0, so each
   eigenvalue θ of H is 1/(w − μ): the s with θ > 0 are the w beyond μ,
   and z = 1/w = θ/(μθ + 1). [Error] names why the companion path must
   run instead. *)
let definite_eigenvalues ~max_iter ~label q =
  let module Chol = Urs_linalg.Cholesky in
  let factors w = Chol.factor (Qbd.neg_qw q w) in
  let rec lower t halvings =
    if factors (1.0 +. t) then Some t
    else if halvings = 0 then None
    else lower (t /. 2.0) (halvings - 1)
  in
  if not (Qbd.reversible q) then Error Not_reversible
  else
    match lower 1.0 40 with
    | None -> Error No_gap_shift
    | Some t ->
        let lo = ref t and hi = ref (2.0 *. t) in
        for _ = 1 to 6 do
          let mid = 0.5 *. (!lo +. !hi) in
          if factors (1.0 +. mid) then lo := mid else hi := mid
        done;
        (* below 1 + t_lo, which factored, since t_hi <= 2·t_lo *)
        let mu = 1.0 +. (0.25 *. (!lo +. !hi)) in
        let g, coeff = Qbd.neg_linearization q mu in
        if not (Chol.factor g) then Error Cholesky
        else
          let d, e =
            Urs_linalg.Hessenberg.tridiagonalize (Chol.standard_form g coeff)
          in
          match
            track_qr ~max_iter ~label (fun observe ->
                Urs_linalg.Qr_eig.eigenvalues_tridiagonal ~max_iter ?observe d
                  e)
          with
          | exception Urs_linalg.Qr_eig.No_convergence _ -> Error Ql_cap
          | thetas ->
              let zs =
                Array.of_list
                  (List.filter_map
                     (fun th ->
                       if th > 0.0 then Some (th /. ((mu *. th) +. 1.0))
                       else None)
                     (Array.to_list thetas))
              in
              if Array.length zs <> Qbd.s q then Error Count
              else begin
                Array.sort Float.compare zs;
                Ok (Array.map Cx.of_float zs)
              end

let solve_stages ~path ?max_iter q =
  let env = Qbd.env q in
  let n_servers = Environment.servers env in
  let s = Qbd.s q in
  let verdict =
    Stability.check ~env ~lambda:(Qbd.lambda q) ~mu:(Qbd.mu q)
  in
  if not verdict.Stability.stable then Error (Unstable verdict)
  else begin
    try
      let qr_max_iter = Option.value max_iter ~default:default_qr_max_iter in
      let label () = Printf.sprintf "spectral N=%d s=%d" n_servers s in
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
                match definite_eigenvalues ~max_iter:qr_max_iter ~label q with
                | Ok zs ->
                    path := Some Definite;
                    zs
                | Error why -> (
                    path := Some (Companion why);
                    try
                      track_qr ~max_iter:qr_max_iter ~label (fun observe ->
                          Urs_linalg.Companion.eigenvalues_inside_unit_disk
                            ~tol:eig_tol ~max_iter:qr_max_iter ?observe
                            ~q0:(Qbd.q0 q) ~q1:(Qbd.q1 q) ~q2:(Qbd.q2 q) ())
                    with
                    | Urs_linalg.Qr_eig.No_convergence
                        { dim; block; iterations } ->
                        raise
                          (Solve_error
                             (Numerical
                                (Printf.sprintf
                                   "QR iteration did not converge (%dx%d \
                                    companion matrix, trailing block %d \
                                    stuck after %d sweeps)"
                                   dim dim block iterations)))
                    | Lu.Singular ->
                        raise
                          (Solve_error (Numerical "singular arrival block")))))
      in
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
         coefficients), so each complex pair is computed once, at the
         eigenvalue with positive imaginary part, from Q(z)'s
         interleaved real form; the other is its conjugate. The QR step
         returns a pair as exact conjugates, which the modulus sort
         leaves side by side. [partner.(k)] is the other index of z_k's
         pair, or k for a real z_k. *)
      let partner = Array.init s Fun.id in
      let us =
        Span.with_ ~name:"urs_spectral_stage"
          ~labels:[ ("stage", "eigenvectors") ]
          (fun () ->
            let us = Array.make s [||] in
            (* one workspace for every real Q(z_k), factored in place,
               and one of order 2s for the complex ones *)
            let work = Lu.workspace s in
            let work2 = lazy (Lu.workspace (2 * s)) in
            let k = ref 0 in
            while !k < s do
              let z = zs.(!k) in
              if Cx.im z = 0.0 then begin
                Qbd.char_poly_real q (Cx.re z) work;
                us.(!k) <- CV.normalize (CV.of_real (Lu.left_null_vector work));
                incr k
              end
              else begin
                let k' = !k + 1 in
                let paired =
                  k' < s
                  && Cx.re zs.(k') = Cx.re z
                  && Cx.im zs.(k') = -.Cx.im z
                in
                if not paired then
                  raise (Solve_error (Numerical "unpaired complex eigenvalue"));
                let upper, lower =
                  if Cx.im z > 0.0 then (!k, k') else (k', !k)
                in
                let w = Lazy.force work2 in
                Qbd.char_poly_complex q zs.(upper) w;
                let u =
                  CV.normalize (CV.of_interleaved (Lu.left_null_vector w))
                in
                Metrics.inc m_conj;
                us.(upper) <- u;
                us.(lower) <- Array.map Cx.conj u;
                partner.(upper) <- lower;
                partner.(lower) <- upper;
                k := !k + 2
              end
            done;
            us)
      in
      (* Φ_r has column k equal to z_k^{N+r} u_kᵀ, so v_{N+r}ᵀ = Φ_r γᵀ.
         It is kept real: a conjugate pair (z, z̄) contributes the
         columns Re(z^{N+r} u) and Im(z̄^{N+r} ū), whose coefficients
         g and ḡ give γ = (g + i·ḡ)/2 and its conjugate, since
         γ·w + γ̄·w̄ = 2·Re(γ·w) for w = z^{N+r} u. *)
      let g, xs, condition =
        Span.with_ ~name:"urs_spectral_stage"
          ~labels:[ ("stage", "boundary") ]
          (fun () ->
            let phi r =
              let e = n_servers + r in
              let zp =
                Array.map
                  (fun z ->
                    if Cx.im z = 0.0 then
                      Cx.of_float (Cx.re z ** float_of_int e)
                    else cx_pow z e)
                  zs
              in
              M.init s s (fun i k ->
                  let im = Cx.im zs.(k) in
                  if im = 0.0 then Cx.re zp.(k) *. Cx.re us.(k).(i)
                  else
                    let w = Cx.mul zp.(k) us.(k).(i) in
                    if im > 0.0 then Cx.re w else Cx.im w)
            in
            match Qbd.boundary q ~phi0:(phi 0) ~phi1:(phi 1) with
            | Error `Singular ->
                raise (Solve_error (Numerical "singular boundary block"))
            | Ok b ->
                Metrics.inc ~by:(float_of_int n_servers) m_lu;
                let g = b.Qbd.gamma in
                ( Array.mapi
                    (fun k gk ->
                      let p = partner.(k) in
                      if p = k then Cx.of_float gk
                      else if Cx.im zs.(k) > 0.0 then
                        Cx.make (0.5 *. gk) (0.5 *. g.(p))
                      else Cx.make (0.5 *. g.(p)) (-0.5 *. gk))
                    g,
                  b.Qbd.levels,
                  b.Qbd.condition ))
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
              (fun acc x -> Cx.add acc (Cx.of_float (V.sum x)))
              spectral_total xs
          in
          if Cx.modulus total < 1e-300 then
            raise (Solve_error (Numerical "normalization constant vanished"));
          let inv_total = Cx.inv total in
          let gammas = Array.map (fun gk -> Cx.mul gk inv_total) g in
          (* the levels are real; the total is real up to what the
             conjugate terms of a pair leave in its imaginary part *)
          let boundary = Array.map (V.scale (Cx.re inv_total)) xs in
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
              eig_path = Option.get !path;
              zs;
              us;
              u_sums;
              gammas;
              boundary;
              boundary_condition = condition;
              residual = nan;
            })
    with Solve_error e -> Error e
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
   residual (an accuracy certificate) *)
let solve_with_path ?max_iter q =
  let path = ref None in
  let staged =
    Span.with_ ~name:"urs_spectral_solve" (fun () ->
        solve_stages ~path ?max_iter q)
  in
  let result =
    Result.map (fun sol -> { sol with residual = balance_residual sol }) staged
  in
  Result.iter_error
    (fun e -> Log.info (fun m -> m "spectral solve failed: %a" pp_error e))
    result;
  (result, !path)

let solve ?max_iter q = fst (solve_with_path ?max_iter q)
