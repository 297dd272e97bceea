(** Fixed-size work pool backed by OCaml 5 domains.

    [create ~domains ()] starts a pool of [domains] execution slots: the
    submitting thread itself plus [domains - 1] worker domains. With
    [domains = 1] no domain is ever spawned and every task runs inline
    on the caller, in submission order — bit-identical to not using a
    pool at all, which is what the [--jobs 1] CLI default relies on.

    Tasks may themselves submit batches to the same pool (the submitter
    participates in draining the queue, so nested batches cannot
    deadlock); this is how a parallel doctor grid nests parallel
    simulation replications. Results always come back in input order,
    and a task raising captures the exception without disturbing the
    other tasks of the batch.

    Parallel batches propagate the submitter's trace context
    ({!Urs_obs.Context}): it is captured once at submission and
    restored around every task, and each task runs inside an
    [urs_pool_task] span, so a task's spans and ledger records carry
    the submitting trace's ids and parent correctly across the domain
    boundary (rendered as flow arrows in the Perfetto export). The
    [domains = 1] inline path inherits the ambient context by simply
    running on the caller — and opens no extra span. *)

type t

val create : ?name:string -> domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains ([domains
    >= 1], raises [Invalid_argument] otherwise). [name] labels the
    pool's metrics ([urs_pool_tasks_total{pool="name"}] etc.; default
    ["default"]).

    Parallel pools ([domains > 1]) additionally record two wall-clock
    {!Urs_obs.Timeline} series labelled [pool=<name>]:
    [urs_pool_queue_depth] (pending tasks after each enqueue/dequeue)
    and [urs_pool_busy_domains] (execution slots currently inside a
    task). The [domains = 1] inline path records neither — it stays
    byte-for-byte the sequential execution.

    When GC profiling is armed ([Urs_obs.Runtime.set_profiling], off by
    default), every task — inline or on a worker domain — additionally
    folds its {!Urs_obs.Span.gc_counters} delta into
    [urs_pool_gc_minor_words_total] / [urs_pool_gc_promoted_words_total]
    / [urs_pool_gc_major_words_total] (labelled [pool=<name>]); minor
    words are domain-local, so the totals account per-task allocation
    exactly regardless of which domain ran the task. *)

val domains : t -> int
(** The execution width the pool was created with (including the
    submitting thread). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element, using every execution
    slot of the pool, and returns the results {e in input order}. If one
    or more tasks raise, the remaining tasks still run to completion,
    then the exception of the {e earliest} failing input is re-raised
    (with its backtrace). Raises [Invalid_argument] after {!shutdown}. *)

val map_result : t -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** Like {!map} but reifies per-task outcomes instead of re-raising. *)

val map_reduce :
  t -> map:('a -> 'b) -> fold:('acc -> 'b -> 'acc) -> init:'acc ->
  'a list -> 'acc
(** [map_reduce pool ~map ~fold ~init xs] maps in parallel and folds the
    results sequentially in input order, so the reduction is
    deterministic even when [fold] is not commutative. *)

val shutdown : t -> unit
(** Complete all queued tasks, then stop and join every worker domain.
    Idempotent; subsequent {!map} calls raise [Invalid_argument]. *)

val with_pool : ?name:string -> domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool and shuts it down
    afterwards, even if [f] raises. *)
