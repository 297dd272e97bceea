(** Transient analysis of the (level-truncated) queue by uniformization.

    The paper's solutions are steady-state only; this module computes
    the distribution at a finite time [t] from a given initial state —
    e.g. how the queue builds up after a cold start, or how long the
    system takes to approach its stationary regime. The generator is
    the same truncated chain used by {!Truncated}; the transient law is
    the Poisson-weighted mixture [Σₙ e^{−qt}(qt)ⁿ/n! · π₀Pⁿ] with
    [P = I + Q/q] (uniformization), which is numerically robust. *)

type error = Too_large of { states : int; limit : int }

val pp_error : Format.formatter -> error -> unit

type t

val create : ?levels:int -> Qbd.t -> (t, error) result
(** Precompute the uniformized chain ([levels] defaults to [200]). A
    chain of more than 20,000 states is refused with [Too_large] (the
    transient iteration is sparse and cheaper than {!Truncated}'s dense
    solve, so its budget is larger).
    Stability is {e not} required — transient behaviour of an unstable
    queue is well-defined (and interesting). *)

type state = { mode : int; jobs : int }
(** An initial condition. *)

val empty_all_operative : t -> state
(** The canonical cold start: no jobs, every server operative in the
    phase mix given by the operative law's initial distribution — mode
    index of the first all-operative mode under stationary phase
    weights is ambiguous, so this uses the most likely all-operative
    mode. *)

val distribution_at : t -> initial:state -> time:float -> float array
(** Full state distribution at time [t] (indexed [jobs * s + mode]).
    The Poisson series runs through {!Urs_obs.Convergence.track}: with
    recording on, its truncation is recorded as a ["uniformization"]
    convergence trace (one sample per term, the term weight as the
    residual). *)

val mean_jobs_at : t -> initial:state -> time:float -> float
val mean_operative_at : t -> initial:state -> time:float -> float

val relaxation_profile :
  t -> initial:state -> times:float list -> (float * float) list
(** [(t, L(t))] along a time grid, in the order given — the approach to
    steady state. One uniformization pass serves every time: the
    vectors [π₀Pⁿ] are shared, while each time keeps its own Poisson
    weights and stopping rule, so each [L(t)] is bit for bit
    [mean_jobs_at t]. The pass records one ["uniformization"] trace
    (the largest weight still being summed as the residual); a time of
    [0] is the initial state and takes no part in it. *)
