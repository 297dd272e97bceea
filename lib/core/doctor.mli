(** Self-diagnosis: exact-vs-simulation-vs-approximation cross-checks
    on a grid of paper models, folded into one
    {!Urs_mmq.Diagnostics.verdict}.

    Backs the [urs doctor] subcommand and the [/healthz] endpoint of
    [urs serve]. A run evaluates each grid model with the spectral
    method, scores every a-posteriori probe
    ({!Urs_mmq.Diagnostics.check_spectral}), then cross-validates the
    mean queue length against the matrix-geometric solver (exact, tight
    tolerance), the geometric approximation (loose tolerance) and a
    fixed-seed simulation (confidence-band tolerance). Two stages on
    the N=5 paper model follow: the warm-up and transient checks
    ({!check_warmup}) and the convergence audit
    ({!check_convergence_stage}). Every check grades a solve the run
    itself performs. *)

type check = {
  name : string;  (** e.g. ["N=5 lambda=4 spectral"]. *)
  value : float;  (** The probe value (residual, relative delta, ...). *)
  detail : string;  (** Human-readable probe summary. *)
  verdict : Urs_mmq.Diagnostics.verdict;
}

type report = { checks : check list; verdict : Urs_mmq.Diagnostics.verdict }

val run :
  ?quick:bool ->
  ?pool:Urs_exec.Pool.t ->
  unit ->
  report
(** Run the cross-checks. [quick] (default [false]) restricts the grid
    to the single N=5, λ=4 paper model with a short simulation — about
    a second, suitable for CI smoke; its report holds ten checks. The
    full run covers N=5/10/12 with longer simulations. When [pool] is
    given the grid models are checked on it concurrently (and each
    model's simulation replications nest on the same pool); the report
    is identical to a sequential run.

    Updates the [urs_health_status{component="doctor"}] gauge and
    appends a ["doctor.run"] record to the active ledger. *)

val verdict : report -> Urs_mmq.Diagnostics.verdict

val check_model :
  ?sim:Solver.sim_options ->
  ?pool:Urs_exec.Pool.t ->
  Model.t ->
  check list
(** Cross-check one model; [sim] enables the simulation comparison.
    A successful spectral solve sets the gauges
    [urs_health_status{component="spectral"}] and
    [urs_health_value{check="..."}] of its probes (balance and
    eigenpair residual, mass defect, boundary condition, stability
    margin), with last-write semantics. *)

val check_warmup :
  ?pool:Urs_exec.Pool.t ->
  sim:Solver.sim_options ->
  Model.t ->
  check list
(** Warm-up (initial transient) analysis of one model: a short batch of
    warmup-less replications records mean-jobs trajectories into a
    private timeline registry; the replication-averaged trajectory is
    fed to Welch's truncation rule — checked against the warmup the
    [sim] options imply (0.1 × duration) — and cross-checked against
    the uniformization transient expectation at several time points
    (one {!Urs_mmq.Transient.relaxation_profile} pass). Returns
    the ["... warmup"] and ["... sim-vs-transient"] checks; {!run}
    includes them for the N=5 paper model. *)

val check_convergence_stage :
  ?qr_max_iter:int ->
  Model.t ->
  check list
(** Convergence audit of one model: re-solve it with every iterative
    method (spectral QR, matrix-geometric R fixed point, geometric
    approximation's Brent refinement) under
    {!Urs_obs.Convergence.with_recording} and grade each finished
    iteration trace with {!Urs_mmq.Diagnostics.check_convergence} —
    iteration-cap proximity, non-monotone deflation, residual
    stagnation, slow linear contraction. One ["... conv/<solver>"]
    check per trace, plus a suspect check when the spectral solve
    itself fails. [qr_max_iter] lowers the QR sweep budget per
    eigenvalue (tests use it to force a stall). {!run} includes this
    stage, its last, for the N=5 paper model. *)

val paper_model : servers:int -> lambda:float -> Model.t
(** The §4 paper model: service rate 1, fitted H2 operative periods,
    exponential (η = 25) inoperative periods. *)

val pp_check : Format.formatter -> check -> unit
val pp_report : Format.formatter -> report -> unit
