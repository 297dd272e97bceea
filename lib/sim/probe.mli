(** Trajectory probe for a single simulation run.

    Records three bounded {!Urs_obs.Timeline} series as the simulation
    evolves — [urs_sim_jobs] (jobs in system), [urs_sim_in_service]
    (jobs actually on an operative server, i.e. [min jobs operative])
    and [urs_sim_operative] (operative-server count) — all sharing the
    given labels (conventionally [rep=<i>]). The probe hooks the
    state-change sites of {!Server_farm}: it consumes no randomness and
    schedules no events, so enabling it never perturbs the simulated
    trajectory; results with and without a probe are bit-identical.

    A probe belongs to one replication on one domain, so it buffers
    samples in preallocated float arrays and hands all three series
    over together, through {!Urs_obs.Timeline.record_block}, each time
    256 state changes have accumulated, and at {!finish}. Recording
    allocates nothing per state change. The buckets are exactly those
    of per-sample recording, but a live [/timeline] view of a running
    replication lags it by at most one block of state changes. *)

type t

val create :
  ?registry:Urs_obs.Timeline.t ->
  ?capacity:int ->
  ?horizon:float ->
  ?meta:(string * string) list ->
  ?labels:(string * string) list ->
  servers:int ->
  unit ->
  t
(** Create (or re-acquire and clear — live views are last-run-wins) the
    three series, and record the initial state at [t = 0]: no jobs, all
    [servers] operative. Pass [horizon] (expected run length, i.e.
    warmup + duration) so all replications share one bucket layout; pass
    the domain id in [meta], never in [labels], to keep series identity
    independent of pool scheduling. *)

val set_jobs : t -> now:float -> int -> unit
(** The number of jobs in system changed at time [now]. *)

val set_operative : t -> now:float -> int -> unit
(** The number of operative servers changed at time [now]. *)

val finish : t -> now:float -> unit
(** Hand over the buffered samples, then close the time integration at
    the end of the run. *)
