(** Append-only run ledger: one JSONL line per solver call, sweep point,
    simulation replication or bench section, carrying the model
    parameters, wall time, result summary and a snapshot of the relevant
    gauges.

    The ledger complements the metrics registry: gauges keep only the
    last written value (see {!Metrics}), while the ledger keeps the full
    per-solve history, so a sweep's every point can be reconstructed
    (and re-run) from the journal.

    Two sinks, both optional:
    - a file sink ({!open_file}) appending one compact JSON document per
      line — enabled by [--ledger FILE] on the CLI and per bench run;
    - an in-memory ring of the most recent records ({!set_memory}),
      served live by the [/runs] HTTP route of [urs serve].

    When neither sink is active, {!record} is a no-op, so instrumented
    call sites pay nothing. Timestamps come from {!Span.now} (pluggable
    clock — deterministic in tests). Sequence numbering, the ring and
    the file channel share one mutex, so records from concurrent pool
    domains get unique [seq] values and whole JSONL lines (never
    interleaved bytes), and the HTTP server thread can read {!recent}
    while a solve appends. *)

type record = {
  seq : int;  (** Per-process sequence number, 1-based. *)
  time : float;  (** {!Span.now} at append time (Unix seconds). *)
  kind : string;
      (** Call-site family: ["solver.evaluate"], ["spectral.solve"],
          ["sweep.point"], ["sim.replication"], ["bench.section"],
          ["doctor"], ["runtime"] (a GC/allocation probe around a code
          region — [Urs_obs.Runtime.probe]: the probed label in
          [params], word/collection deltas and heap high-water in
          [summary]). *)
  strategy : string option;  (** Solver strategy label, when relevant. *)
  params : (string * Json.t) list;  (** Model / run parameters. *)
  wall_seconds : float;
  outcome : string;  (** ["ok"] or an error classification. *)
  summary : (string * Json.t) list;  (** Result fields. *)
  gauges : (string * float) list;
      (** Snapshot of relevant registry gauges at append time. *)
  trace_id : string option;
      (** 32-hex-digit id of the trace that produced this record
          (absent on v1 journals and untraced appends). *)
  span_id : string option;
      (** 16-hex-digit id of the innermost span at append time. *)
}

val schema : string
(** The schema tag embedded in every written record (["urs-ledger/2"]).
    {!of_json} also accepts ["urs-ledger/1"] lines (they simply lack
    the trace stamps) and rejects unknown schema tags. *)

val record :
  ?strategy:string ->
  ?params:(string * Json.t) list ->
  ?outcome:string ->
  ?summary:(string * Json.t) list ->
  ?gauges:(string * float) list ->
  ?context:Context.t ->
  kind:string ->
  wall_seconds:float ->
  unit ->
  unit
(** Append a record to every active sink; no-op when inactive. Stamps
    [seq], [time] and the trace/span ids of [?context] (defaulting to
    the caller's ambient {!Context.current}, so records emitted inside
    a traced span correlate automatically — HTTP handlers, whose
    thread shares the main thread's ambient cell, pass their request
    context explicitly). I/O errors on the file sink are swallowed
    (the ledger must never fail a run). *)

val active : unit -> bool

val open_file :
  ?truncate:bool -> ?max_bytes:int -> ?keep:int -> ?flush_every:int ->
  string -> unit
(** Start journaling to a file (append mode by default; [~truncate:true]
    starts fresh). Replaces any previously open file sink. The sink is a
    {!Ledger_store}: [max_bytes] enables size-based rotation to
    [path.1..K] with [keep] (default 3) retained segments, and
    [flush_every] (default 1) batches channel flushes — see
    {!Ledger_store.open_}. Every segment grows a sparse [.idx] sidecar
    that filtered scans ({!fold_file} with [~should_skip], [urs query])
    use to seek over irrelevant blocks. Raises [Sys_error] if the path
    cannot be opened. *)

val close : unit -> unit
(** Flush and close the file sink (keeps the memory sink, if enabled). *)

val set_memory : bool -> unit
(** Enable/disable the in-memory ring (capped at an internal limit;
    disabling clears it). *)

val recent : ?limit:int -> unit -> record list
(** Most recent records from the memory ring, oldest first. *)

val since :
  ?kind:string -> ?limit:int -> seq:int -> unit -> record list * int
(** [since ~seq ()] is the tail cursor behind [/tail]: ring records
    with a sequence number strictly greater than [seq] (oldest first,
    at most [limit], filtered to [kind] when given), plus the client's
    next cursor — the global sequence counter, except when [limit]
    truncated the page, in which case it is the last returned record's
    seq so the next poll resumes where the page ended. Records older
    than the ring capacity are gone; a cursor further back than that
    silently resumes at the ring. *)

val wait_since :
  ?kind:string -> ?limit:int -> seq:int -> timeout_s:float -> unit ->
  record list * int
(** {!since}, long-polling: blocks (in 50 ms ticks) until a matching
    record arrives or [timeout_s] of wall clock elapses, whichever is
    first. [timeout_s <= 0] degenerates to {!since}. *)

val reset : unit -> unit
(** Close the file sink, clear and disable the ring, restart [seq] —
    tests. *)

val to_json : record -> Json.t

val of_json : Json.t -> (record, string) result

type fold_stats = {
  malformed : int;
      (** Lines that did not parse as records (torn tail, corruption)
          — skipped, not fatal. *)
  seeked_records : int;
      (** Records never parsed because their index block was seeked
          over ([~should_skip]). *)
}

val fold_file :
  ?should_skip:(Ledger_store.block -> bool) -> string -> init:'a ->
  f:('a -> record -> 'a) -> ('a * fold_stats, string) result
(** Stream one segment file through [f], skipping (and counting)
    malformed lines instead of aborting: a torn tail (a crashed writer)
    or a corrupt line mid-file costs one count, not the whole read.
    Blank lines are neither records nor malformed. With [~should_skip],
    the segment's sparse sidecar index is consulted and blocks
    satisfying the predicate are seeked over without parsing. [Error]
    only when the file cannot be opened. *)

val fold_path :
  ?should_skip:(Ledger_store.block -> bool) -> string -> init:'a ->
  f:('a -> record -> 'a) -> ('a * fold_stats, string) result
(** {!fold_file} over every segment of the ledger at [path] — rotated
    segments oldest-first ({!Ledger_store.segments}), then the active
    file — so records stream in seq order across a rotation. A segment
    deleted by a racing rotation mid-read is skipped. [Error] when no
    segment exists at all. *)
