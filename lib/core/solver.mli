(** Unified evaluation of a {!Model.t} by any of the four methods:

    - [Exact] — spectral expansion (paper §3.1); requires phase-type
      period distributions.
    - [Approximate] — the heavy-traffic geometric approximation
      (paper §3.2); cheap, robust, asymptotically exact as load → 1.
    - [Matrix_geometric] — Neuts' R-matrix method; an independent exact
      solver, useful for cross-validation.
    - [Simulation] — discrete-event simulation; the only method that
      accepts non-phase-type distributions (used for the C² = 0 points
      of Figure 6), and the only one that yields response-time
      percentiles. *)

type sim_options = {
  duration : float;  (** Measurement window per replication. *)
  replications : int;
  seed : int;
}

val default_sim_options : sim_options
(** 200,000 time units, 5 replications, seed 1. *)

type strategy =
  | Exact
  | Approximate
  | Matrix_geometric
  | Simulation of sim_options

type performance = {
  strategy_used : strategy;
  mean_jobs : float;  (** L — average number of jobs in the system. *)
  mean_response : float;  (** W = L/λ (Little's law). *)
  utilization : float;  (** Offered load over effective capacity. *)
  dominant_eigenvalue : float option;
      (** z_s for the analytic methods; [None] for simulation. *)
  confidence_half_width : float option;
      (** 95% CI half-width on L, for simulation only. *)
}

type error =
  | Not_phase_type
      (** An analytic method was requested but a period distribution is
          not (hyper)exponential — use [Simulation]. *)
  | Unstable of Urs_mmq.Stability.verdict
  | Solver_failure of string

val pp_error : Format.formatter -> error -> unit

val evaluate :
  ?pool:Urs_exec.Pool.t ->
  ?max_iter:int ->
  ?strategy:strategy ->
  Model.t ->
  (performance, error) result
(** Evaluate the model (default strategy [Exact]). [pool] parallelizes
    the replications of the [Simulation] strategy (the analytic methods
    ignore it); results are bit-identical with and without it.
    [max_iter] caps the spectral eigenvalue iteration of the [Exact]
    strategy (other strategies ignore it) — its only legitimate uses
    are tests and fault drills ([urs serve --solve-max-iter]) that need
    a solver which fails on demand.

    Besides the per-strategy call/success/failure counters and the
    [urs_solver_evaluate] span, every call appends one
    ["solver.evaluate"] record to the active {!Urs_obs.Ledger}, the
    only record of the solve: strategy, model parameters (with
    [modes], the QBD's mode count, for the analytic strategies), wall
    time, and the performance summary or the error. The analytic
    strategies add their solver's fields to the summary: for [Exact]
    [eigenvalues], [residual], [boundary_condition], and [eig_path]
    with, after a fallback, [eig_fallback] (also on a failed solve,
    once the eigenvalue stage ran); for [Matrix_geometric]
    [spectral_radius] and [r_iterations]. Its [gauges] are the values
    of this call's own solve, under the names of the last-solve gauges:
    [urs_spectral_dominant_z] for the three analytic strategies, and
    for [Exact] also [urs_spectral_residual] and
    [urs_spectral_eigenvalues] — so the record is the same whatever
    runs on other pool domains. A successful call sets those gauges,
    labelled with its strategy, from the same values; nothing else
    sets them. *)

val evaluate_exn :
  ?pool:Urs_exec.Pool.t ->
  ?max_iter:int ->
  ?strategy:strategy ->
  Model.t ->
  performance
(** Like {!evaluate} but raises [Failure] with a rendered error. *)

val strategy_name : strategy -> string
(** Human-readable strategy name, e.g. ["exact (spectral expansion)"]. *)

val strategy_label : strategy -> string
(** Short metric/ledger label: ["exact"], ["approx"], ["mg"], ["sim"]. *)

val strategy_of_label : string -> strategy option
(** The inverse of {!strategy_label}; ["sim"] gives [Simulation] with
    {!default_sim_options}. [None] for any other string. *)

val ledger_params : Model.t -> (string * Urs_obs.Json.t) list
(** The model parameters recorded with every ledger entry. *)

val pp_performance : Format.formatter -> performance -> unit
