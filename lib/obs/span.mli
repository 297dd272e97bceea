(** Wall-clock timers and hierarchical spans.

    [with_ ~name f] times [f] and records the duration into a
    [<name>_seconds] histogram in the metrics registry (so every span is
    also a metric). When tracing is enabled ({!set_tracing}), spans
    additionally build a tree of timed regions — nested [with_] calls
    become children — which {!trace_json} renders as a flame-style JSON
    document.

    The span stack is domain-local, so pool tasks on different domains
    time their own trees without interleaving; each node records the
    integer id of the domain that ran it (the ["domain"] field of the
    trace JSON), and completed roots are collected under a mutex.

    Every traced span also carries correlation ids from {!Context}: it
    derives a child of the ambient context (or starts a fresh trace)
    and installs it for the duration of [f], so the trace id, its own
    span id, and its parent's span id land in the trace JSON
    (["trace_id"], ["span_id"], ["parent_span_id"]). Because
    [Urs_exec.Pool] captures the submitter's context and restores it on
    the worker domain, a pool task's root span parents onto the
    submitting span even though it lives in another domain's physical
    forest — the per-domain trees knit into one logical tree keyed by
    span ids.

    The clock is pluggable ({!set_clock}) so tests can drive
    deterministic durations. The default clock is
    [Unix.gettimeofday]. *)

val now : unit -> float
(** Current time from the active clock, in seconds. *)

val set_clock : (unit -> float) -> unit
(** Replace the clock (tests). *)

val use_default_clock : unit -> unit

val set_tracing : bool -> unit
(** Enable/disable trace-tree collection (default: disabled — metrics
    are always recorded regardless). Enabling also clears any previous
    trace. *)

val tracing_enabled : unit -> bool

val set_gc_profiling : bool -> unit
(** Enable/disable GC profiling (default: disabled). When on (and
    tracing is also on), every span samples {!gc_counters} at entry and
    exit and attaches the minor/promoted/major word deltas to its trace
    node (["gc_minor_words"] etc. in {!trace_json}, [args] in
    {!trace_perfetto}). The same switch gates the per-task GC deltas in
    [Urs_exec.Pool] and is what [Urs_obs.Runtime.set_profiling]
    toggles; it lives here so neither module depends on the other. A
    disabled probe costs one atomic load per span. *)

val gc_profiling_enabled : unit -> bool

val gc_counters : unit -> float * float * float
(** [(minor, promoted, major)] words allocated so far by the calling
    domain. Minor words come from [Gc.minor_words], because the OCaml
    5.1 runtime's [Gc.counters] counts the words allocated since the
    last minor collection an eighth too low; deltas of [Gc.counters]
    lose words unless a collection falls in between. The spans and
    [Urs_exec.Pool]'s per-task deltas read this. *)

val with_ :
  ?registry:Metrics.t -> ?labels:Metrics.labels -> name:string ->
  (unit -> 'a) -> 'a
(** [with_ ~name f] runs [f], observing its wall-clock duration in the
    histogram [name ^ "_seconds"] (with the given labels) even when [f]
    raises. [name] must be a valid metric name. *)

val trace_json : unit -> string
(** The completed root spans (chronological), as JSON:
    [{"spans": [{"name", "labels", "start_s", "duration_s", "domain",
    "trace_id", "span_id", "parent_span_id"?,
    "children": [...]}, ...], "dropped": n}]. Roots are capped at an
    internal limit; [dropped] counts the excess. *)

val trace_perfetto : ?extra:Json.t list -> unit -> string
(** The same trace as {!trace_json}, flattened into Chrome/Perfetto
    "trace_events" JSON: [{"traceEvents": [{"name", "ph": "X", "ts",
    "dur", "pid", "tid", "args"?}, ...], "displayTimeUnit": "ms"}].
    Every span is one complete event; [ts]/[dur] are microseconds, the
    span's labels (and GC word deltas when profiling was on) become
    [args], and the domain id becomes the [tid] so each domain renders
    as its own track (pool parallelism is visible directly). [args]
    always carries the correlation ids ([trace_id], [span_id],
    [parent_span_id] when present). Cross-domain parent/child edges
    additionally emit a flow-event pair ([ph:"s"] on the parent's
    track, [ph:"f", bp:"e"] on the child's, keyed by the child's span
    id) so Perfetto draws the hand-off arrow and the per-domain tracks
    read as one connected tree. [extra] events — e.g. GC slices and
    counter samples from [Urs_obs.Runtime.perfetto_events] — are
    appended to [traceEvents] verbatim. Open the file in
    [ui.perfetto.dev] or [chrome://tracing]. *)

val reset_trace : unit -> unit
(** Drop all completed spans (the open-span stack survives only within
    [with_], so this is safe at any quiescent point). *)
