(** File-sink mechanics for the run ledger: size-based rotation with
    bounded retention, batched flushing, and the streaming line scan
    every reader goes through.

    Operates on raw JSONL lines (never parses a record), so {!Ledger}
    can layer record serialization and the process-wide lock on top
    without a dependency cycle. {b Not synchronized} — every writer
    call must happen under the ledger mutex.

    On-disk layout (logrotate-style): the active segment at [path] and
    rotated segments at [path.1] (newest) through [path.K] (oldest).
    Those segment files are everything the ledger writes, so it never
    takes more than [(K + 1) × max_bytes] on disk (plus one oversized
    record, see {!open_}). *)

(** {1 Writing} *)

type t
(** An open sink: the active segment and the rotation / flush-batching
    state. *)

val open_ :
  ?truncate:bool -> ?max_bytes:int -> ?keep:int -> ?flush_every:int ->
  string -> t
(** Open [path] for appending ([~truncate:true] starts the segment
    fresh). [max_bytes] enables rotation: a write that would push the
    active segment past it rotates first (a single oversized record
    still gets written, to an otherwise-empty segment). [keep] (default
    3, clamped to [>= 1]) rotated segments are retained; the oldest is
    deleted at rotation. [flush_every] (default 1, clamped to [>= 1])
    batches channel flushes: every record is flushed when 1, otherwise
    every that-many records — and always on {!close} and at rotation.
    Raises [Sys_error] when the path cannot be opened. *)

val write : t -> string -> unit
(** Append one line (no trailing newline in the argument), rotating
    first when it would overflow [max_bytes]. Raises [Sys_error] on I/O
    failure. *)

val flush : t -> unit

val close : t -> unit
(** Flush and close the channel (never raises). *)

(** {1 Reading} *)

val segments : string -> string list
(** Existing segment files of the ledger at [path], oldest first:
    [path.K; ...; path.1; path] — each present only if it exists on
    disk. Numbering may skip one index (a crash between rotation
    renames); the walk stops at the second missing one. Seq numbers
    increase along (and across) the returned files. *)

val fold_lines :
  string -> init:'a -> f:('a -> string -> 'a) -> ('a, string) result
(** [fold_lines path ~init ~f] streams the lines of one segment through
    [f]. A torn last line (no trailing newline) is passed on as it is.
    [Error] only when the file cannot be opened. *)
