(** Numerical-health diagnostics for the solvers.

    Each probe (balance residual, per-eigenpair residual, probability
    mass conservation, boundary-system conditioning, stability margin,
    simulation confidence-interval width, cross-method agreement) is
    scored against two thresholds and folded into a severity verdict.
    The verdicts back the [urs doctor] CLI subcommand and the
    [/healthz] endpoint of [urs serve]; [Doctor] exports them as
    gauges. *)

type verdict =
  | Ok  (** All probes within tolerance. *)
  | Degraded of string list
      (** Result usable but some probe is outside its comfort zone;
          the strings describe which. *)
  | Suspect of string list
      (** At least one probe indicates the result should not be
          trusted. *)

val severity : verdict -> int
(** [0] for [Ok], [1] for [Degraded], [2] for [Suspect]. *)

val verdict_label : verdict -> string
(** ["ok"], ["degraded"] or ["suspect"]. *)

val issues : verdict -> string list

val combine : verdict list -> verdict
(** Worst severity wins; issue lists are concatenated. *)

val pp_verdict : Format.formatter -> verdict -> unit

(** {1 Spectral solves} *)

type spectral_report = {
  balance_residual : float;  (** {!Spectral.residual}. *)
  eigen_residual : float;  (** {!Spectral.max_eigen_residual}. *)
  mass_defect : float;  (** {!Spectral.mass_defect}. *)
  boundary_condition : float;  (** {!Spectral.boundary_condition}. *)
  dominant_z : float;
  stability_margin : float;
  verdict : verdict;
}

val check_spectral : Spectral.t -> spectral_report
(** Run every a-posteriori probe on a solved model. A balance or
    eigenpair residual or a mass defect at or above [1e-10] degrades
    the verdict and at or above [1e-6] makes it suspect; so does a
    boundary LU pivot-ratio condition estimate at [1e10] and [1e14]. A
    positive stability margin below [1e-3] degrades (the spectral solve
    goes ill-conditioned as utilization approaches 1); a margin that is
    not positive, or a dominant eigenvalue outside (0, 1), is
    suspect. *)

val pp_spectral_report : Format.formatter -> spectral_report -> unit

(** {1 Cross-checks} *)

val relative_delta : float -> float -> float
(** [|a − b| / max(|a|, |b|)]; [0.] when both are zero. *)

val check_exact_pair : label:string -> float -> float -> float * verdict
(** Agreement between two exact methods (e.g. spectral vs
    matrix-geometric mean queue length). Returns the relative delta
    and its verdict: degraded from [1e-8], suspect from [1e-4]. *)

val check_simulation_agreement :
  label:string ->
  exact:float ->
  estimate:float ->
  half_width:float ->
  unit ->
  float * verdict
(** Does the simulation estimate sit inside a (generously widened)
    confidence band around the exact value? The band is 3 CI
    half-widths, floored at 5 % of the exact value (the CI itself is
    noisy at few replications); three times the band escalates to
    suspect. Returns the relative delta and its verdict. *)

val check_warmup :
  label:string -> warmup:float -> horizon:float -> float option -> verdict
(** Does the simulation's measurement window clear the initial
    transient? The argument is the Welch-estimated truncation time
    ({!Urs_stats.Welch.truncation_index} mapped back to simulated time);
    [None] means the trajectory never settled within [horizon].
    Degraded when the truncation time exceeds [warmup] by more than
    5 % of the horizon, or on [None]. *)

val check_transient_trajectory :
  label:string -> (float * float * float) list -> float * verdict
(** Cross-check a measured mean-jobs trajectory against the
    uniformization transient solution: each element is
    [(time, measured, expected)]. Returns the worst relative
    disagreement (relative to the expectation, floored at one job) and
    its verdict: degraded from [0.35] (replication averages over a
    handful of runs are noisy, and the simulator's initial phase mix
    differs slightly from the most-likely-mode start of the
    uniformization), suspect from [1.0]. Degraded when called with no
    points. *)

val check_convergence :
  label:string -> Urs_obs.Convergence.trace -> float * verdict
(** Grade one finished iteration trace ([urs doctor]'s [convergence]
    stage). Suspect when the trace did not converge, when its longest
    run of iterations between deflations reached 80 % or more of the
    iteration cap (the next harder model will stall outright), when
    deflation is non-monotone (the active/remaining figure grew), or
    when the residual failed to improve at all over the last 12
    post-deflation samples; degraded on slow linear contraction
    (geometric-mean per-iteration rate above [0.995], i.e. more than
    ~5000 iterations per decade — the paper models' linearly convergent
    R fixed point at [z_s ≈ 0.96] passes).

    The cap of a ["qr"] trace bounds the QR/QL sweeps per eigenvalue,
    that is between two deflations, not the trace's [iterations] (the
    sweeps over all eigenvalues); a trace without deflations is one
    run, so there the cap bounds [iterations]. Runs are read from the
    samples' iteration numbers; when the sample ring dropped a
    deflation, the first run is counted from the first kept sample.
    Returns the cap-utilization ratio (longest run over cap;
    [iterations] when the trace carries no cap) and the verdict. *)

val check_ci :
  label:string -> estimate:float -> half_width:float -> unit -> float * verdict
(** Is the simulation's own confidence interval tight enough relative
    to its estimate? Returns the relative half-width and its verdict:
    degraded from [0.05], suspect from [0.5]. *)
