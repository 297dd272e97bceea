(** Runtime (GC/allocation) probes and Runtime_events capture.

    Two independent, off-by-default mechanisms:

    - {b Quick-stat probes}: {!sample}/{!delta}/{!measure} wrap a code
      region with [Gc.quick_stat] (and [Gc.minor_words]) and return
      words allocated (minor, promoted, major), collection counts and
      heap sizes to the caller; they publish no metric and write no
      ledger record. {!set_profiling} arms the same sampling inside
      [Span.with_] (per span) and [Urs_exec.Pool] (per task).

    - {b Runtime_events consumer}: on runtimes with eventring support
      (OCaml >= 5.1), {!start_events} starts the runtime's event ring
      and a consumer thread that turns GC phase begin/end pairs into
      bounded {!gc_slices} (timed on the [Span] clock so they merge
      into the Perfetto trace, see {!perfetto_events}), a
      [urs_runtime_gc_pause_seconds{phase}] histogram,
      [urs_runtime_gc_events_total{phase}] /
      [urs_runtime_domain_events_total{event}] counters, and a
      [urs_runtime_major_gc{domain}] timeline. If the runtime lacks
      support (or [URS_NO_RUNTIME_EVENTS] is set to a non-empty,
      non-zero value), {!start_events} returns [false] and everything
      degrades to a no-op. *)

type sample = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  top_heap_words : int;
}
(** A point-in-time [Gc.quick_stat] snapshot (word counts are
    domain-local for the minor heap, process-wide for the major). Minor
    words come from [Gc.minor_words], which counts every word allocated
    so far; [Gc.quick_stat]'s own figure moves only at minor
    collections in OCaml 5.1. *)

val sample : unit -> sample

type delta = {
  d_minor_words : float;
  d_promoted_words : float;
  d_major_words : float;
  d_minor_collections : int;
  d_major_collections : int;
  d_compactions : int;
  heap_words_after : int;  (** absolute, not a difference *)
  top_heap_words_after : int;  (** absolute, not a difference *)
}

val delta : before:sample -> after:sample -> delta

val measure : (unit -> 'a) -> 'a * delta
(** [measure f] runs [f] and returns its result with the GC delta
    across the call. No metrics or ledger side effects. *)

val set_profiling : bool -> unit
(** Arm/disarm per-span and per-pool-task GC deltas (delegates to
    [Span.set_gc_profiling]; one process-wide atomic). *)

val profiling_enabled : unit -> bool

(** {1 Runtime_events consumer} *)

val start_events : unit -> bool
(** Start the runtime event ring and the consumer thread. Returns
    [true] only when this call actually started the consumer — [false]
    if it was already running, if [URS_NO_RUNTIME_EVENTS] disables it,
    or if the runtime refused — so a caller can pair it with
    {!stop_events} without tearing down somebody else's consumer.

    The runtime materialises the ring as a [<pid>.events] file (in
    [OCAML_RUNTIME_EVENTS_DIR] as of process startup, defaulting to the
    CWD) and only removes it on orderly exit; the first successful call
    unlinks it as soon as the consumer's cursor has it mapped, so a
    killed process leaves no litter behind. Set
    [OCAML_RUNTIME_EVENTS_PRESERVE] (non-empty) to keep the file for
    post-mortem tooling, matching the runtime's own convention. *)

val stop_events : unit -> unit
(** Stop the consumer thread (drains the ring first) and pause the
    runtime's event collection. Idempotent. *)

val events_running : unit -> bool

val clear_events : unit -> unit
(** Drop collected slices and counter samples (the consumer keeps
    running). *)

type slice = {
  phase : string;  (** [Runtime_events.runtime_phase_name] *)
  domain : int;
  start_s : float;
      (** On the [Span] clock — comparable to span start times. *)
  duration_s : float;
}

val gc_slices : unit -> slice list
(** Completed top-level GC phases (minor, major, major slice, STW,
    explicit GC entry points), chronological, capped at an internal
    bound. *)

val perfetto_events : unit -> Json.t list
(** The collected slices and counter samples as Chrome trace events —
    ["ph":"X"] GC slices per domain tid and ["ph":"C"] counter tracks —
    ready to pass to [Span.trace_perfetto ~extra]. *)

val status_json : unit -> Json.t
(** Snapshot for the HTTP [/runtime] endpoint: switch states, capture
    counts, and a current {!sample}. *)
