(** The ledger query engine behind [urs query]: filter → group →
    aggregate over every segment of a (possibly rotated) JSONL ledger.

    Scans stream through {!Ledger.fold_path}, parsing every record of
    every segment once; torn lines are skipped and counted rather than
    fatal. Aggregations reuse the repo's estimators
    ({!Urs_stats.Welford}, {!Urs_stats.Empirical.quantile}), so query
    answers agree with the library to the last bit. *)

type key = Kind | Strategy | Outcome | Route | Trace
(** Grouping/filtering dimensions. [Route] is the ["route"] param of
    ["http.access"] records; records without a value group under
    ["-"]. *)

type field = Wall_seconds | Time | Named of string
(** Numeric record field an aggregation reads. [Named n] looks up [n]
    in the record's gauges, then summary, then params. *)

type agg =
  | Count
  | Rate  (** records per second over the group's observed time span *)
  | Mean of field
  | Stddev of field
  | Min of field
  | Max of field
  | Quantile of float * field  (** [p] in (0,1) *)

type filter = {
  kind : string option;
  strategy : string option;
  outcome : string option;
  route : string option;
  trace_id : string option;
  since : float option;  (** inclusive lower bound on record time *)
  until : float option;  (** inclusive upper bound *)
}

val no_filter : filter

(** {1 Parsing the CLI grammar} *)

val parse_key : string -> (key, string) result
(** ["kind" | "strategy" | "outcome" | "route" | "trace"[_id]]. *)

val parse_group_by : string -> (key list, string) result
(** Comma-separated keys; [""] is the empty (single-group) grouping. *)

val parse_agg : string -> (agg, string) result
(** ["count"], ["rate"], ["mean(F)"], ["stddev(F)"], ["min(F)"],
    ["max(F)"], or ["pN(F)"] with [N] a percentile such as [50], [99]
    or [99.9] — [F] a field name: ["wall_seconds"], ["time"], or a
    gauge/summary/param name. *)

val key_label : key -> string

val agg_label : agg -> string
(** Canonical column label, e.g. ["p99(wall_seconds)"]. *)

(** {1 Execution} *)

type row = { group : string list; cells : float list }
(** One output group: its key values (parallel to [group_columns]) and
    aggregation results (parallel to [columns]; [nan] when undefined —
    e.g. a quantile over no samples). *)

type t = {
  group_columns : string list;
  columns : string list;
  rows : row list;  (** sorted by group values *)
  segments : int;  (** segment files enumerated *)
  parsed : int;  (** records parsed (pre-filter) *)
  matched : int;  (** records passing the filter *)
  malformed : int;  (** lines skipped as unparseable *)
  elapsed_s : float;
}

val run :
  ?filter:filter -> ?group_by:key list -> ?aggs:agg list -> string ->
  (t, string) result
(** [run path] executes one query over the ledger at [path] (all
    segments, oldest first). [aggs] defaults to [[Count]]. [Error] when
    no segment of [path] exists. *)

val run_records :
  ?filter:filter -> ?group_by:key list -> ?aggs:agg list ->
  Ledger.record list -> t
(** The same engine over an in-memory record list (tests, goldens). *)

(** {1 Rendering} *)

val render_table : t -> string
(** Fixed-width table plus a trailing scan-stats line. *)

val text_table : string list list -> string
(** Column-aligned text: the first row is the header, underlined with
    dashes; columns are two spaces apart and the last is not padded.
    Shared by {!render_table} and [Perf.render_table]. *)

val result_json : t -> Json.t

val render_json : t -> string

val render_data : t -> string
(** gnuplot-ready: [# ] comment headers, then one space-separated row
    per group. *)
