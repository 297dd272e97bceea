(* Numerical-health verdicts for the solvers (Palmer & Mitrani,
   CS-TR-936: the spectral expansion is trustworthy exactly when its
   eigenvalues sit inside the unit disk, the boundary systems are
   well-conditioned and the balance residuals are tiny). Each probe is
   scored against two thresholds; the worst score wins. *)

type verdict = Ok | Degraded of string list | Suspect of string list

(* ---- thresholds ---- *)

(* balance/eigenpair residuals and mass defect: paper-model solves land
   near 1e-15; anything past 1e-10 deserves a second look and past 1e-6
   the answer should not be trusted *)
let residual_degraded = 1e-10
let residual_suspect = 1e-6

(* pivot-ratio estimates of the boundary LU blocks *)
let condition_degraded = 1e10
let condition_suspect = 1e14

(* spectral solves go ill-conditioned as utilization -> 1 *)
let margin_degraded = 1e-3

(* simulation 95% CI half-width relative to the estimate *)
let ci_rel_degraded = 0.05
let ci_rel_suspect = 0.5

(* relative disagreement between two *exact* methods *)
let delta_exact_degraded = 1e-8
let delta_exact_suspect = 1e-4

(* exact-vs-simulation band: this many CI half-widths, floored at this
   fraction of the exact value (the CI itself is noisy at few
   replications); [sim_suspect_factor] times the band -> suspect *)
let sim_band_half_widths = 3.0
let sim_band_rel_floor = 0.05
let sim_suspect_factor = 3.0

(* Welch truncation may exceed the configured warmup by this fraction
   of the run horizon before the summary window is declared
   transient-contaminated *)
let warmup_slack_frac = 0.05

(* measured trajectory vs uniformization transient expectation:
   replication averages over a handful of runs are noisy, and the
   simulator's initial phase mix differs slightly from the
   most-likely-mode start of Transient.solve *)
let transient_rel_degraded = 0.35
let transient_rel_suspect = 1.0

(* convergence stage: a run of iterations between deflations that
   burns >= 80% of the iteration cap means the next harder model will
   stall outright; a window of samples with no
   residual improvement is a stall in progress; a per-iteration
   contraction rate above 0.995 (> 5000 iterations per decade) is
   pathologically slow even for the linearly-convergent R fixed point
   (z_s ≈ 0.96 on the paper models passes) *)
let conv_cap_ratio_suspect = 0.8
let conv_stall_window = 12
let conv_rate_degraded = 0.995

(* ---- verdict algebra ---- *)

let severity = function Ok -> 0 | Degraded _ -> 1 | Suspect _ -> 2

let verdict_label = function
  | Ok -> "ok"
  | Degraded _ -> "degraded"
  | Suspect _ -> "suspect"

let issues = function Ok -> [] | Degraded is | Suspect is -> is

let combine vs =
  let worst = List.fold_left (fun acc v -> max acc (severity v)) 0 vs in
  let all = List.concat_map issues vs in
  match worst with 0 -> Ok | 1 -> Degraded all | _ -> Suspect all

let pp_verdict ppf v =
  match v with
  | Ok -> Format.pp_print_string ppf "OK"
  | Degraded is | Suspect is ->
      Format.fprintf ppf "%s (%a)"
        (String.uppercase_ascii (verdict_label v))
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           Format.pp_print_string)
        is

(* a little accumulator: score each probe, collect complaints *)
type scorer = { mutable worst : int; mutable complaints : string list }

let new_scorer () = { worst = 0; complaints = [] }

let complain sc level msg =
  sc.worst <- max sc.worst level;
  sc.complaints <- msg :: sc.complaints

let grade sc ~degraded ~suspect ~fmt value =
  if value >= suspect then
    complain sc 2 (Printf.sprintf fmt value ^ " (suspect)")
  else if value >= degraded then
    complain sc 1 (Printf.sprintf fmt value ^ " (degraded)")

let close sc =
  match sc.worst with
  | 0 -> Ok
  | 1 -> Degraded (List.rev sc.complaints)
  | _ -> Suspect (List.rev sc.complaints)

(* ---- spectral solves ---- *)

type spectral_report = {
  balance_residual : float;
  eigen_residual : float;
  mass_defect : float;
  boundary_condition : float;
  dominant_z : float;
  stability_margin : float;
  verdict : verdict;
}

let check_spectral sol =
  let q = Spectral.qbd sol in
  let stab =
    Stability.check ~env:(Qbd.env q) ~lambda:(Qbd.lambda q) ~mu:(Qbd.mu q)
  in
  let balance_residual = Spectral.residual sol in
  let eigen_residual = Spectral.max_eigen_residual sol in
  let mass_defect = Spectral.mass_defect sol in
  let boundary_condition = Spectral.boundary_condition sol in
  let dominant_z = Spectral.dominant_eigenvalue sol in
  let stability_margin = Stability.margin stab in
  let sc = new_scorer () in
  grade sc ~degraded:residual_degraded ~suspect:residual_suspect
    ~fmt:"balance residual %.2e" balance_residual;
  grade sc ~degraded:residual_degraded ~suspect:residual_suspect
    ~fmt:"eigenpair residual %.2e" eigen_residual;
  grade sc ~degraded:residual_degraded ~suspect:residual_suspect
    ~fmt:"mass defect %.2e" mass_defect;
  grade sc ~degraded:condition_degraded ~suspect:condition_suspect
    ~fmt:"boundary condition %.2e" boundary_condition;
  if stability_margin <= 0.0 then
    complain sc 2
      (Printf.sprintf "stability margin %.2e not positive" stability_margin)
  else if stability_margin < margin_degraded then
    complain sc 1
      (Printf.sprintf "stability margin %.2e: near saturation"
         stability_margin);
  if dominant_z <= 0.0 || dominant_z >= 1.0 then
    complain sc 2
      (Printf.sprintf "dominant eigenvalue %.6f outside (0, 1)" dominant_z);
  {
    balance_residual;
    eigen_residual;
    mass_defect;
    boundary_condition;
    dominant_z;
    stability_margin;
    verdict = close sc;
  }

let pp_spectral_report ppf r =
  Format.fprintf ppf
    "balance=%.2e eigen=%.2e mass=%.2e cond=%.1e z_s=%.6f margin=%.4f -> %a"
    r.balance_residual r.eigen_residual r.mass_defect r.boundary_condition
    r.dominant_z r.stability_margin pp_verdict r.verdict

(* ---- cross-method agreement ---- *)

let relative_delta a b =
  let scale = Float.max (abs_float a) (abs_float b) in
  if scale = 0.0 then 0.0 else abs_float (a -. b) /. scale

let check_exact_pair ~label a b =
  let sc = new_scorer () in
  let d = relative_delta a b in
  if Float.is_nan d then
    complain sc 2 (Printf.sprintf "%s: non-finite disagreement" label)
  else if d >= delta_exact_suspect then
    complain sc 2 (Printf.sprintf "%s disagree by %.2e (suspect)" label d)
  else if d >= delta_exact_degraded then
    complain sc 1 (Printf.sprintf "%s disagree by %.2e (degraded)" label d);
  (d, close sc)

let check_simulation_agreement ~label ~exact ~estimate ~half_width () =
  let sc = new_scorer () in
  let delta = abs_float (exact -. estimate) in
  let rel = relative_delta exact estimate in
  let band =
    Float.max
      (sim_band_half_widths *. half_width)
      (sim_band_rel_floor *. abs_float exact)
  in
  if Float.is_nan delta then
    complain sc 2 (Printf.sprintf "%s: non-finite simulation delta" label)
  else if delta > sim_suspect_factor *. band then
    complain sc 2
      (Printf.sprintf "%s: simulation off by %.3g (>> CI, suspect)" label delta)
  else if delta > band then
    complain sc 1
      (Printf.sprintf "%s: simulation off by %.3g (outside CI, degraded)" label
         delta);
  (rel, close sc)

(* ---- warm-up (initial transient) ---- *)

let check_warmup ~label ~warmup ~horizon truncation =
  let sc = new_scorer () in
  let slack = warmup_slack_frac *. horizon in
  (match truncation with
  | None ->
      complain sc 1
        (Printf.sprintf
           "%s: trajectory never settles within the %.3g-unit horizon" label
           horizon)
  | Some tr ->
      if tr > warmup +. slack then
        complain sc 1
          (Printf.sprintf
            "%s: measured warm-up %.3g exceeds configured warmup %.3g — \
             summary window overlaps the transient"
            label tr warmup));
  close sc

let check_transient_trajectory ~label pairs =
  let sc = new_scorer () in
  match pairs with
  | [] ->
      complain sc 1 (Printf.sprintf "%s: no trajectory points to compare" label);
      (nan, close sc)
  | _ ->
      let worst =
        List.fold_left
          (fun acc (_, measured, expected) ->
            (* denominator floored at one job: relative error on a
               near-empty system would otherwise be meaningless *)
            let rel =
              abs_float (measured -. expected)
              /. Float.max (abs_float expected) 1.0
            in
            if Float.is_nan acc || rel > acc then rel else acc)
          nan pairs
      in
      if Float.is_nan worst then
        complain sc 2 (Printf.sprintf "%s: non-finite trajectory delta" label)
      else if worst >= transient_rel_suspect then
        complain sc 2
          (Printf.sprintf
             "%s: trajectory off the transient expectation by %.2g (suspect)"
             label worst)
      else if worst >= transient_rel_degraded then
        complain sc 1
          (Printf.sprintf
             "%s: trajectory off the transient expectation by %.2g (degraded)"
             label worst);
      (worst, close sc)

(* ---- convergence traces ---- *)

(* Grades one finished iteration trace (see Urs_obs.Convergence).
   Stagnation and contraction-rate analyses run on the samples after
   the last deflation event — the only stretch where the residual
   series tracks a single sub-problem (a QR deflation legitimately
   resets the residual to the next block's sub-diagonal). A healthy QR
   trace ends on its last deflation, so those two checks are vacuous
   there and bite on the deflation-free solvers (R fixed point, Brent,
   uniformization) and on genuine stalls. *)
(* What the cap bounds: the iterations between two deflations. For QR
   and QL that is the sweeps spent on one eigenvalue, while
   [iterations] totals the sweeps over all of them; a solver without
   deflations has one run, the whole trace. Runs are measured on the
   samples' iteration numbers. When the ring dropped a deflation, the
   first run starts at the first kept sample. *)
let longest_run (tr : Urs_obs.Convergence.trace) =
  let samples = tr.samples in
  let kept =
    Array.fold_left
      (fun k (s : Urs_obs.Convergence.sample) ->
        if s.deflation then k + 1 else k)
      0 samples
  in
  let start =
    ref
      (if kept < tr.deflations && Array.length samples > 0 then
         samples.(0).iteration - 1
       else 0)
  in
  let longest = ref 0 in
  Array.iter
    (fun (s : Urs_obs.Convergence.sample) ->
      if s.deflation then begin
        longest := max !longest (s.iteration - !start);
        start := s.iteration
      end)
    samples;
  max !longest (tr.iterations - !start)

let check_convergence ~label (tr : Urs_obs.Convergence.trace) =
  let sc = new_scorer () in
  if not tr.converged then
    complain sc 2
      (Printf.sprintf "%s: %s did not converge after %d iterations" label
         tr.solver tr.iterations);
  let run = longest_run tr in
  let cap_ratio =
    match tr.max_iter with
    | Some m when m > 0 -> float_of_int run /. float_of_int m
    | _ -> nan
  in
  if tr.converged && Float.is_finite cap_ratio
     && cap_ratio >= conv_cap_ratio_suspect
  then
    complain sc 2
      (Printf.sprintf
         "%s: %s used %d of %d iterations without a deflation — \
          iteration-cap proximity %.0f%%"
         label tr.solver run
         (Option.get tr.max_iter)
         (100.0 *. cap_ratio));
  let samples = tr.samples in
  let n = Array.length samples in
  (* non-monotone deflation: the active/remaining figure must never
     grow (QR removes eigenvalues; it cannot un-deflate) *)
  let non_monotone = ref false in
  for i = 1 to n - 1 do
    if samples.(i).Urs_obs.Convergence.active
       > samples.(i - 1).Urs_obs.Convergence.active
    then non_monotone := true
  done;
  if !non_monotone then
    complain sc 2
      (Printf.sprintf "%s: %s deflation is non-monotone (active block grew)"
         label tr.solver);
  (* analysis window: finite residuals after the last deflation *)
  let last_deflation = ref (-1) in
  for i = 0 to n - 1 do
    if samples.(i).Urs_obs.Convergence.deflation then last_deflation := i
  done;
  let window =
    let rec collect i acc =
      if i >= n then List.rev acc
      else
        let r = samples.(i).Urs_obs.Convergence.residual in
        collect (i + 1)
          (if Float.is_finite r && r > 0.0 then r :: acc else acc)
    in
    collect (!last_deflation + 1) []
  in
  let wlen = List.length window in
  if wlen >= conv_stall_window then begin
    let tail =
      List.filteri (fun i _ -> i >= wlen - conv_stall_window) window
    in
    let first = List.hd tail in
    let last = List.nth tail (List.length tail - 1) in
    (* residual stagnation: no improvement at all over the window *)
    if last >= first then
      complain sc 2
        (Printf.sprintf
           "%s: %s residual stagnated (%.2e -> %.2e over the last %d \
            iterations)"
           label tr.solver first last conv_stall_window);
    (* slow linear contraction: geometric mean of successive ratios *)
    let rec rate_acc prev rest acc cnt =
      match rest with
      | [] -> (acc, cnt)
      | r :: rest ->
          if prev > 0.0 && r > 0.0 then
            rate_acc r rest (acc +. log (r /. prev)) (cnt + 1)
          else rate_acc r rest acc cnt
    in
    let acc, cnt = rate_acc (List.hd window) (List.tl window) 0.0 0 in
    if cnt >= 4 then begin
      let rate = exp (acc /. float_of_int cnt) in
      if tr.converged && rate > conv_rate_degraded && rate < 1.0 then
        complain sc 1
          (Printf.sprintf
             "%s: %s contracts slowly (rate ~%.4f per iteration)" label
             tr.solver rate)
    end
  end;
  let value =
    if Float.is_finite cap_ratio then cap_ratio
    else float_of_int tr.iterations
  in
  (value, close sc)

let check_ci ~label ~estimate ~half_width () =
  let sc = new_scorer () in
  let rel =
    if estimate = 0.0 then if half_width = 0.0 then 0.0 else infinity
    else half_width /. abs_float estimate
  in
  if rel >= ci_rel_suspect then
    complain sc 2
      (Printf.sprintf "%s: relative CI half-width %.2e (suspect)" label rel)
  else if rel >= ci_rel_degraded then
    complain sc 1
      (Printf.sprintf "%s: relative CI half-width %.2e (degraded)" label rel);
  (rel, close sc)
