(** Bounded time-series recorders ("timelines").

    A {!series} records a piecewise-constant signal — queue length,
    operative-server count, pool queue depth — sampled at state-change
    instants, and aggregates it into a fixed number of equal-width time
    buckets. When a sample lands beyond the covered range, adjacent
    buckets are merged pairwise and the bucket width doubles, so memory
    stays O(capacity) no matter how long the run is. Each bucket keeps
    the covered duration, the time integral of the signal, the raw
    sample count and sum, and the min/max, so:

    - the per-bucket mean is the {e exact} time average of the signal
      over the bucket (not a point sample), comparable to analytical
      transient expectations;
    - merging buckets is exact (sums add, min/max combine), which makes
      downsampling deterministic and {!coarsen} idempotent — the
      contents depend only on the recorded [(t, v)] sequence, never on
      wall-clock timing or pool width.

    Recording is mutex-guarded per series and allocates nothing per
    sample. {!record} takes the lock once per sample; {!record_block}
    takes it once per block of buffered samples and leaves the same
    buckets. A writer that hands over blocks is seen by snapshots (and
    the live [/timeline] view) up to one block late. The registry
    mirrors {!Metrics}: creation is idempotent on (name, labels) and
    safe from any domain of a [Urs_exec.Pool]. Informational tags that
    must not distinguish series (e.g. the domain id a replication
    happened to run on) go in [meta], not [labels]. *)

type labels = (string * string) list

type t
(** A registry of series. *)

val create : unit -> t
(** A fresh, empty registry (tests, scoped measurements such as the
    doctor's warm-up analysis). *)

val default : t
(** The process-global registry, exposed by the HTTP [/timeline]
    endpoint. *)

type series
(** A handle; cheap to keep, safe to share. *)

val series :
  ?registry:t ->
  ?capacity:int ->
  ?horizon:float ->
  ?meta:labels ->
  ?labels:labels ->
  string ->
  series
(** [series name] finds or creates the series registered under
    [(name, labels)] (labels canonicalized by key). [capacity] (default
    256, min 2) bounds the number of buckets. [horizon], when given,
    fixes the initial bucket width to [horizon /. capacity] so that runs
    no longer than [horizon] never trigger a merge — and, crucially, so
    every replication of a batch shares an identical bucket layout,
    allowing index-aligned cross-replication averaging ({!mean_array}).
    Without it the initial width is [1.0] time units. [meta] replaces
    the series' informational tags when non-empty. Raises
    [Invalid_argument] on an invalid name ({!Metrics.is_valid_name}) or
    [capacity < 2]. *)

val record : series -> t:float -> float -> unit
(** [record s ~t v]: the signal took value [v] at time [t] and holds it
    until the next sample. The value held since the previous sample is
    integrated over the elapsed interval first. Time must be
    non-decreasing per series; a stale [t] is clamped forward. Non-finite
    [t] or [v] is ignored. *)

val record_block : series -> float array -> float array -> int -> unit
(** [record_block s ts vs n] records the samples [(ts.(k), vs.(k))] for
    [k = 0 .. n-1], in order, under one acquisition of the series lock:
    the buckets end exactly as after [n] calls to {!record}. A writer
    that owns a series alone (the simulator's [Urs_sim.Probe]) buffers
    its samples and hands them over in blocks, so it takes the lock once
    per block instead of once per sample. Raises [Invalid_argument] when
    [n < 0] or either array is shorter than [n]. *)

val finish : series -> t:float -> unit
(** Close the integration at time [t]: extend the last recorded value to
    [t] without registering a new sample (end of a run). *)

val clear : series -> unit
(** Empty the series in place (origin, width and buckets reset); the
    handle stays registered. Each replication clears its series before
    recording, so concurrently displayed data is last-run-wins. *)

val reset : ?registry:t -> unit -> unit
(** {!clear} every series in the registry. *)

(** {1 Snapshots} *)

type point = {
  index : int;  (** bucket index on the [t0 + i*width] grid *)
  t_lo : float;
  t_hi : float;
  count : int;  (** raw samples that landed in the bucket *)
  time_cov : float;  (** duration of the bucket actually covered *)
  area : float;  (** integral of the signal over the covered part *)
  sum_v : float;  (** sum of the raw sample values *)
  vmin : float;
  vmax : float;
}

type snapshot = {
  s_name : string;
  s_labels : labels;
  s_meta : labels;
  t0 : float;  (** [nan] when nothing has been recorded *)
  width : float;
  points : point list;  (** non-empty buckets, ascending index *)
}

val point_mean : point -> float
(** Time-weighted mean ([area /. time_cov]); falls back to the plain
    sample mean for buckets with samples but no covered time (a single
    instantaneous sample), [nan] for empty points. *)

val snapshot_series : series -> snapshot
(** A consistent copy of one series (safe at any point). *)

val snapshot : ?registry:t -> ?name:string -> unit -> snapshot list
(** All series (or those named [name]), sorted by name then labels. *)

val coarsen : factor:int -> snapshot -> snapshot
(** Merge each group of [factor] adjacent buckets into one — the same
    exact algebra the recorder uses when it doubles widths, so
    [coarsen ~factor:a] then [~factor:b] equals
    [coarsen ~factor:(a * b)]. [factor = 1] is the identity. Raises
    [Invalid_argument] when [factor < 1]. *)

val mean_array : snapshot -> float array
(** Dense per-bucket mean trajectory on the bucket grid, from index 0 to
    the last non-empty bucket; [nan] where nothing was recorded. Input
    to the Welch warm-up analysis, index-aligned across replications
    that share a [horizon]. *)

(** {1 JSON} *)

val snapshot_json : snapshot -> Json.t

val to_json : ?registry:t -> ?name:string -> unit -> Json.t
(** [{"series": [{"name", "labels"?, "meta"?, "t0", "bucket_width",
    "points": [{"t_lo", "t_hi", "count", "covered_s", "mean", "min",
    "max"}, ...]}, ...]}] — served by the [/timeline] HTTP endpoint. *)
