(** Live progress for long batch operations.

    A {e task} is a named completion counter with an optional total —
    one per sweep, replication batch, or doctor grid. Workers
    {!tick} it from any domain (one registry, one lock; ticks happen per
    point, not per event, so contention is negligible). The HTTP
    [/progress] endpoint and [urs watch] render {!snapshot} with
    completion, rate and ETA; the clock is {!Span.now}, so tests can
    drive deterministic elapsed times. *)

val start : ?total:int -> string -> unit
(** Begin (or restart, resetting the counter) the named task. *)

val tick : ?by:int -> string -> unit
(** Advance the named task by [by] (default 1); no-op when the task was
    never started. *)

val finish : string -> unit
(** Freeze the task's elapsed clock; it remains listed as finished. *)

val reset : unit -> unit
(** Forget every task (tests). *)

type status = {
  p_name : string;
  p_total : int option;
  p_completed : int;
  p_elapsed_s : float;
  p_rate : float;  (** completed per second; [0.] before any tick *)
  p_eta_s : float option;
      (** [remaining /. rate] when the total is known and work is
          ongoing *)
  p_finished : bool;
}

val snapshot : unit -> status list
(** All tasks, in start order. *)

val to_json : unit -> Json.t
(** [{"tasks": [{"task", "total"?, "completed", "elapsed_s",
    "rate_per_s", "eta_s"?, "finished"}, ...]}] — served by
    [/progress]. *)
