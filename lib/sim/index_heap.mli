(** Allocation-free event queue for the simulation hot path.

    A binary min-heap ordered by [(time, seq)] — FIFO for equal times —
    whose entries are plain ints and floats in preallocated parallel
    arrays: no closures, no [option], no per-event boxing. Each entry
    carries an event [kind] tag, a [server] payload (use [-1] when not
    applicable) and an [epoch] payload for completion invalidation.
    Freed slots are recycled through a free-list stack, so in steady
    state {!push} and {!drop} allocate nothing; arrays only grow
    (doubling) when more events are simultaneously pending than ever
    before. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 64) preallocates that many slots. *)

val size : t -> int
val is_empty : t -> bool

val push : t -> time:float -> kind:int -> server:int -> epoch:int -> unit

val top_time : t -> float
(** Time of the earliest event. The [top_*] accessors and {!drop} must
    only be called when the heap is non-empty. *)

val top_kind : t -> int
val top_server : t -> int
val top_epoch : t -> int

val drop : t -> unit
(** Remove the earliest event and recycle its slot. Raises
    [Invalid_argument] on an empty heap. *)
