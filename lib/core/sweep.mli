(** Parameter sweeps used by the numerical experiments of §4. Each
    function returns the x-axis value paired with the evaluated
    performance. Points that fail to solve are omitted from the result,
    but never silently: each drop is logged on the [urs.sweep] source
    with the failing parameter value and the solver error, and counted
    in the [urs_sweep_failures_total{sweep="..."}] metric
    ([urs_sweep_points_total] counts attempts).

    Every sweep evaluates its points on [pool] when one is given
    ([--jobs N] on the CLI); the returned point list is byte-identical
    whatever the pool width, because points are prepared sequentially
    and results are collected in input order. [cache] memoizes repeated
    (model, strategy) evaluations across sweeps (see
    {!Solve_cache}). *)

val over_servers :
  ?strategy:Solver.strategy ->
  ?pool:Urs_exec.Pool.t ->
  ?cache:Solve_cache.t ->
  Model.t ->
  values:int list ->
  (int * Solver.performance) list

val over_arrival_rates :
  ?strategy:Solver.strategy ->
  ?pool:Urs_exec.Pool.t ->
  ?cache:Solve_cache.t ->
  Model.t ->
  values:float list ->
  (float * Solver.performance) list

val over_repair_times :
  ?strategy:Solver.strategy ->
  ?pool:Urs_exec.Pool.t ->
  ?cache:Solve_cache.t ->
  Model.t ->
  values:float list ->
  (float * Solver.performance) list
(** Sweep the {e mean} inoperative period (1/η, Figure 7's x-axis),
    replacing the model's inoperative distribution by an exponential
    with that mean ({!Model.with_inoperative}: the rest of the model,
    repair crews included, stays). *)

val over_operative_scv :
  ?strategy:Solver.strategy ->
  ?pool:Urs_exec.Pool.t ->
  ?cache:Solve_cache.t ->
  Model.t ->
  pinned_rate:float ->
  values:float list ->
  (float * Solver.performance) list
(** Figure 6's x-axis: sweep the squared coefficient of variation of
    the operative periods, keeping the mean fixed at the model's
    current operative mean, using
    {!Urs_prob.Fit.h2_of_mean_scv_pinned_rate} with the given pinned
    rate. A value of exactly [0.] builds a deterministic distribution
    (only valid with a simulation strategy, as in the paper). The rest
    of the model, repair crews included, stays
    ({!Model.with_operative}). *)

val over_loads :
  ?strategy:Solver.strategy ->
  ?pool:Urs_exec.Pool.t ->
  ?cache:Solve_cache.t ->
  Model.t ->
  values:float list ->
  (float * Solver.performance) list
(** Figure 8's x-axis: sweep the offered load, setting the arrival rate
    to [load x effective capacity] where the effective capacity is the
    average number of operative servers times the service rate (from
    {!Model.stability}). Loads at or above 1 are attempted and dropped
    if unstable, like any other failing point. *)

val linspace : float -> float -> int -> float list
(** [linspace lo hi k] is [k] evenly spaced values from [lo] to [hi]
    inclusive. *)
