(** Perf history: the bench summary journal behind [BENCH_history.jsonl]
    and the trend analysis behind [urs report].

    {b Schema ["urs-perf/1"]} — one JSON object per line:
    {v
    {"schema":"urs-perf/1",
     "time": <unix seconds the bench finished>,
     "git_rev": "<short git revision, or "unknown">",
     "ocaml": "<Sys.ocaml_version>",
     "jobs": <URS_JOBS pool width the bench ran with>,
     "sections": {"<section>": <wall seconds>, ...},
     "solvers": {"<solver>": {"seconds": <wall seconds per solve>,
                              "minor_words": <minor words per solve>,
                              "promoted_words": <...>,
                              "major_words": <...>}, ...}}
    v}
    Extra fields are ignored on read (the schema can grow
    backward-compatibly); an unknown ["schema"] tag is an error.
    {!append} never truncates — [make bench] only ever adds lines. *)

val schema : string
(** ["urs-perf/1"]. *)

type solver_stat = {
  seconds : float;  (** wall seconds per solve *)
  minor_words : float;  (** minor-heap words allocated per solve *)
  promoted_words : float;
  major_words : float;
}

type entry = {
  time : float;
  git_rev : string;
  ocaml : string;
  jobs : int;
  sections : (string * float) list;
  solvers : (string * solver_stat) list;
}

val entry_to_json : entry -> Json.t

val entry_of_json : Json.t -> (entry, string) result

val append : string -> entry -> unit
(** Append one line to the history file (created if missing, never
    truncated). *)

val read_file : string -> (entry list, string) result
(** Parse a history file; blank lines are skipped, the first malformed
    line is an error. *)

val git_rev : unit -> string
(** Short revision of HEAD, or ["unknown"] outside a git checkout. *)

(** {1 Trend analysis} *)

type trend = {
  solver : string;
  runs : (float * solver_stat) list;
      (** (entry time, stat) in history order. *)
  best_seconds : float;  (** minimum over all runs ("best-known") *)
  latest_seconds : float;
  ratio : float;  (** [latest_seconds /. best_seconds] *)
  latest_minor_words : float;
  gated : bool;  (** participates in the breach decision *)
  breach : bool;  (** [gated] and [ratio > max_ratio] *)
}

type report = {
  entries : int;
  max_ratio : float;
  trends : trend list;  (** sorted by solver name *)
  section_runs : (string * float list) list;
  breaches : string list;
}

val analyze : ?max_ratio:float -> ?gate:string list -> entry list -> report
(** [analyze entries] computes per-solver trends over the history (in
    the given order). A solver in [gate] (default
    [["spectral"; "sim"; "sim_probe"]] — the paper's analytic hot path
    plus the simulator's seconds-per-event, as the bare engine and
    through [Replicate.run] with its default timeline probes; the others
    are too fast for wall-clock ratios to be stable) breaches when its
    latest run exceeds [max_ratio] (default [2.0]) times its best-known
    run. [urs report] exits nonzero iff [breaches] is non-empty. *)

(** {1 Change-point detection}

    [urs report --detect]: a {!Urs_stats.Changepoint} CUSUM pass over
    each solver's per-run wall times, in log space (a regression is a
    multiplicative step — the detector's [shift] is a log-ratio). *)

type drift = {
  d_solver : string;
  d_gated : bool;
      (** In the gate list: an upward step here is a confirmed
          regression ([urs report --detect] exits 1). *)
  d_change : Urs_stats.Changepoint.change;
  d_ratio : float;  (** The step factor, [exp shift] — 2.0 is "2x slower". *)
  d_git_rev : string;
      (** Revision of the first post-change entry: the commit the step
          arrived with. *)
  d_time : float;  (** Time of that entry. *)
  d_runs : int;  (** Length of the series the detector saw. *)
}

val detect_drift :
  ?gate:string list -> ?threshold:float -> ?drift:float -> ?warmup:int ->
  entry list -> drift list
(** One detector pass per solver series (history order), returning only
    the solvers where a step was confirmed. Short series (fewer than
    [warmup + 2] points) never flag — the committed history's few-run
    tails stay quiet. Detector knobs default to
    {!Urs_stats.Changepoint.detect}'s. *)

val drift_regressions : drift list -> drift list
(** The gated, upward (slower) subset: what [--detect] exits 1 on. *)

val render_drifts : solvers:int -> drift list -> string
(** Human rendering; [solvers] is the number of series scanned (for
    the "none detected" line). *)

val drifts_json : drift list -> Json.t

val render_table : report -> string
(** Human-readable fixed-width table (solver rows: runs, best, latest,
    ratio, alloc-per-solve, gate status, and the full trend). *)

val render_markdown : report -> string

val report_json : report -> Json.t

val render_json : report -> string

val render_data : report -> string
(** gnuplot-ready columns [run time seconds minor_words], one index
    (double-blank-line separated block) per solver. *)

(** {1 Ledger digest} *)

val ledger_digest : Ledger.record list -> (string * int * float) list
(** Per-kind (kind, record count, summed wall seconds), sorted by
    kind. *)

val render_ledger_digest : (string * int * float) list -> string
