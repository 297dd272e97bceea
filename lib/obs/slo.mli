(** Declarative service-level objectives with multi-window burn-rate
    evaluation over the metrics registry.

    An objective budgets a fraction of bad events: [p99 < 50ms] allows
    1% of requests above 50 ms (estimated from the latency histogram by
    {!Metrics.histogram_count_above}); [error_rate < 0.1%] allows 0.1%
    of requests to be answered 5xx (read off the
    [urs_http_requests_total{code}] counters). Each {!evaluate} takes a
    cumulative (bad, total) sample per objective and computes, for each
    configured window, the burn rate [(Δbad/Δtotal)/budget] against the
    youngest retained sample old enough to cover that window. A burn
    rate of 1.0 spends the budget exactly as fast as allowed; the
    objective {e breaches} when every window burns above 1 — the
    multi-window rule from the Google SRE workbook: the fast window
    (default 5 m) makes detection responsive, the slow window (default
    1 h) keeps a brief blip from alarming.

    The clock is pluggable, so tests and the doctor's [slo] stage can
    replay hours of traffic in microseconds. {!evaluate} additionally
    publishes [urs_slo_burn_rate{objective,window}] and
    [urs_slo_breached{objective}] gauges on the engine's registry and
    appends one ["slo"] ledger record per objective. *)

type window = { label : string; seconds : float }

val default_windows : window list
(** [5m] (300 s) and [1h] (3600 s). *)

type sli =
  | Latency of { metric : string; q : float; threshold_s : float }
      (** "[q]-quantile of histogram [metric] below [threshold_s]";
          bad events are observations above the threshold. *)
  | Error_rate of { metric : string }
      (** Fraction of counter family [metric] carrying a [code >= 500]
          label. *)

type objective = { name : string; sli : sli; budget : float }
(** [budget] is the allowed bad fraction — [1 - q] for latency
    objectives, the target rate for error-rate objectives. *)

val default_latency_metric : string
(** ["urs_http_request_seconds"]. *)

val default_error_metric : string
(** ["urs_http_requests_total"]. *)

val parse_objective : string -> (objective, string) result
(** Parse a spec of the form [\[name:\] pNN\[(metric)\] < DURATION] or
    [\[name:\] error_rate\[(metric)\] < PERCENT]: e.g.
    ["p99 < 50ms"], ["api: p99.9(urs_http_request_seconds) < 2s"],
    ["error_rate < 0.1%"]. Durations take [us]/[ms]/[s] suffixes; a
    bare rate is a fraction, [X%] a percentage. Without a [name:]
    prefix, the expression names itself. *)

val describe_sli : sli -> string
(** Short human form, e.g. ["p99 < 50ms"]. *)

type t
(** A running engine: objectives plus the retained sample history. *)

val create :
  ?clock:(unit -> float) ->
  ?windows:window list ->
  ?registry:Metrics.t ->
  objective list ->
  t
(** [create objectives] takes an immediate baseline sample, so traffic
    served before the engine existed is never charged against the
    budget. [clock] defaults to {!Span.now}, [windows] to
    {!default_windows}, [registry] to {!Metrics.default}. Raises
    [Invalid_argument] on an empty objective or window list. *)

val objectives : t -> objective list

val tick : t -> unit
(** Take a sample without evaluating — call periodically so windows
    have baselines at the right depths. Samples older than the longest
    window are pruned (one older sample is kept as the slow window's
    baseline). *)

type window_eval = {
  window : string;
  window_s : float;
  span_s : float;
      (** Time actually covered — less than [window_s] while the engine
          is younger than the window. *)
  bad : float;
  total : float;
  burn_rate : float;  (** [0.] when the window saw no events. *)
}

type eval = {
  objective : objective;
  current : float;
      (** The SLI's instantaneous value: the interpolated quantile
          (latency) or the cumulative error rate; [nan] when the metric
          has no data yet. *)
  cumulative_bad : float;
  cumulative_total : float;
  windows : window_eval list;
  breached : bool;
      (** Every window burning above 1 (windows with no events don't
          breach). *)
}

val evaluate : t -> eval list
(** Sample, evaluate every objective, publish burn-rate/breached gauges
    and ["slo"] ledger records, and return the verdicts in objective
    order. *)

val any_breached : eval list -> bool

val eval_json : eval -> Json.t

val to_json : eval list -> Json.t
(** [{"objectives": [...], "breached": bool}] — the [/slo] route's
    response body. *)
