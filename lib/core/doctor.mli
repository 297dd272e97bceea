(** Self-diagnosis: exact-vs-simulation-vs-approximation cross-checks
    on a grid of paper models, folded into one
    {!Urs_mmq.Diagnostics.verdict}.

    Backs the [urs doctor] subcommand and the [/healthz] endpoint of
    [urs serve]. A run evaluates each grid model with the spectral
    method, scores every a-posteriori probe
    ({!Urs_mmq.Diagnostics.check_spectral}), then cross-validates the
    mean queue length against the matrix-geometric solver (exact, tight
    tolerance), the geometric approximation (loose tolerance) and a
    fixed-seed simulation (confidence-band tolerance). *)

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
    to the single N=5, λ=4 paper model with a short simulation — a few
    seconds, suitable for CI smoke. The full run covers N=5/10/12 with
    longer simulations. When [pool] is given the grid models are
    checked on it concurrently (and each model's simulation
    replications nest on the same pool); the report is identical to a
    sequential run.

    Updates the [urs_health_status{component="doctor"}] gauge and
    appends a ["doctor.run"] record to the active ledger. *)

val verdict : report -> Urs_mmq.Diagnostics.verdict

val check_model :
  ?sim:Solver.sim_options ->
  ?pool:Urs_exec.Pool.t ->
  Model.t ->
  check list
(** Cross-check one model; [sim] enables the simulation comparison. *)

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
    the uniformization transient expectation
    ({!Urs_mmq.Transient.mean_jobs_at}) at several time points. Returns
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
    itself fails. [qr_max_iter] lowers the QR sweep budget (tests use
    it to force a stall). {!run} includes this stage for the N=5 paper
    model. *)

val check_slo_stage : unit -> check list
(** SLO-engine drill: replay an hour of synthetic traffic through
    {!Urs_obs.Slo} engines on private registries under a fake clock —
    healthy and deliberately breached workloads for both SLI kinds
    (error-rate and latency) — and verify the healthy drills stay
    quiet while the breached ones alarm. Four ["slo ..."] checks;
    {!run} includes them just before the perf-drift stage. *)

val check_perf_drift_stage : unit -> check list
(** Change-point-detector drill behind [urs report --detect]: seeded
    synthetic perf series with known answers — i.i.d. lognormal noise
    around a stable baseline must stay quiet, and the same noise with
    an injected 2x step must flag within a few runs of the injection
    with a sane magnitude estimate. Three ["perf-drift ..."] checks;
    {!run} includes them as its final stage. *)

val paper_model : servers:int -> lambda:float -> Model.t
(** The §4 paper model: service rate 1, fitted H2 operative periods,
    exponential (η = 25) inoperative periods. *)

val pp_check : Format.formatter -> check -> unit
val pp_report : Format.formatter -> report -> unit
