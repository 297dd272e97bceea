(** Process-wide metrics registry: counters, gauges and fixed-bucket
    histograms, in the spirit of a Prometheus client library but with no
    external dependencies. Histograms additionally keep a
    {!Urs_stats.Welford} accumulator so snapshots carry mean/stddev
    summaries, not just bucket counts.

    Handles are cheap records; creation functions are idempotent — the
    same (name, labels) pair always returns the same underlying metric,
    so instrumented modules can create their handles at load time and
    mutate them from hot paths without hashtable lookups. Registration
    and every update are mutex-guarded, so metrics can be shared freely
    across the domains of a work pool ([Urs_exec.Pool]): concurrent
    increments and observations never lose updates, and {!snapshot} sees
    a consistent copy.

    Render a {!snapshot} with {!Export.prometheus} or {!Export.json}. *)

type labels = (string * string) list
(** Label pairs, e.g. [[("strategy", "exact")]]. Canonicalized (sorted
    by key) at registration, so label order never distinguishes
    metrics. *)

type t
(** A registry. *)

val create : unit -> t
(** A fresh, empty registry (tests, scoped measurements). *)

val default : t
(** The process-global registry used when [?registry] is omitted. *)

val is_valid_name : string -> bool
(** Whether [s] is a legal metric/series name
    ([[a-zA-Z_:][a-zA-Z0-9_:]*]). Shared by {!Timeline} so timeline
    series obey the same naming rules as metrics. *)

val reset : ?registry:t -> unit -> unit
(** Zero every metric in place: counters and gauges to [0.], histogram
    buckets emptied. Existing handles remain valid (and registered) —
    used by the bench harness to get per-section snapshots. *)

(** {1 Counters} — monotonically increasing totals. *)

type counter

val counter : ?registry:t -> ?help:string -> ?labels:labels -> string -> counter
val inc : ?by:float -> counter -> unit
(** Increase the counter ([by] defaults to [1.]; negative raises
    [Invalid_argument]). *)

val counter_value : counter -> float

(** {1 Gauges} — instantaneous values that can move both ways.

    Gauges have {e last-write} semantics: a snapshot sees only the most
    recent [set]. Result-summary gauges written once per solve — the
    [urs_spectral_dominant_z] / [urs_spectral_residual] /
    [urs_spectral_eigenvalues] family, labelled by solver strategy —
    therefore describe the {e last} solve only; under a sweep every
    earlier point is overwritten. That is the intended reading for a
    scrape endpoint ("what did the process just do"); the full per-solve
    history goes to the {!Ledger}, one record per solve, whose values
    come from the solve itself: under a multi-domain sweep a gauge read
    back after a solve may already hold another domain's write. *)

type gauge

val gauge : ?registry:t -> ?help:string -> ?labels:labels -> string -> gauge
val set : gauge -> float -> unit
val add : gauge -> float -> unit

val set_max : gauge -> float -> unit
(** Keep the running maximum — high-water marks. *)

val gauge_value : gauge -> float

(** {1 Histograms} — fixed cumulative-style buckets plus a Welford
    summary. *)

type histogram

val default_time_buckets : float array
(** Upper bounds suited to wall-clock durations in seconds:
    [1e-6 .. 60]. *)

val default_latency_buckets : float array
(** Log-spaced upper bounds tuned for request latencies: roughly three
    per decade over [1e-5 .. 10] seconds (19 bounds), so interpolated
    quantiles ({!histogram_quantile}) resolve µs-scale health-check
    responses and second-scale solves from the same histogram. *)

val histogram :
  ?registry:t ->
  ?help:string ->
  ?labels:labels ->
  ?buckets:float array ->
  string ->
  histogram
(** [buckets] are strictly increasing upper bounds (default
    {!default_time_buckets}); an implicit [+Inf] bucket is always
    appended. Raises [Invalid_argument] on unsorted or empty bounds. *)

val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type snapshot_data =
  | Counter_value of float
  | Gauge_value of float
  | Histogram_value of {
      bounds : float array;
      counts : int array;  (** per-bucket (not cumulative); last = +Inf *)
      sum : float;
      count : int;
      mean : float;
      stddev : float;
    }

type entry = {
  name : string;
  help : string;
  labels : labels;
  data : snapshot_data;
}

val snapshot : ?registry:t -> unit -> entry list
(** A consistent copy of every registered metric, sorted by name then
    labels. Safe to take at any point. *)

val value : ?registry:t -> ?labels:labels -> string -> float option
(** Current value of a counter or gauge by name (convenience for tests
    and assertions); [None] if absent or a histogram. *)

(** {1 Bucket interpolation}

    Estimators over a histogram's per-bucket counts (the
    {!Histogram_value} layout: [counts] has one entry per bound plus a
    final [+Inf] bucket), assuming observations are uniform within a
    bucket — the same monotone interpolation Prometheus's
    [histogram_quantile()] performs server-side. *)

val histogram_quantile : bounds:float array -> counts:int array -> float -> float
(** [histogram_quantile ~bounds ~counts q] estimates the [q]-quantile
    ([0 <= q <= 1]). Exact when [q·count] lands on a bucket boundary;
    otherwise off by at most one bucket width. A rank that falls in the
    [+Inf] bucket returns the highest finite bound (no upper edge to
    interpolate towards). Returns [nan] on an empty histogram, a
    non-finite or out-of-range [q], or mismatched array lengths. *)

val histogram_count_above :
  bounds:float array -> counts:int array -> float -> float
(** [histogram_count_above ~bounds ~counts t] estimates how many
    observations exceeded [t]: every count in buckets entirely above
    [t] plus the interpolated share of the bucket containing it ([0.]
    on an empty histogram). Feeds latency SLOs — "p99 < t" holds iff at
    most 1% of observations lie above [t]. Returns [nan] when [t] is
    NaN or the arrays are mismatched. *)
