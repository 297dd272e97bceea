(** Trace-correlation contexts: who caused this work?

    A context names a {e trace} (one logical request or CLI run,
    128-bit id), the {e span} within it that is currently executing
    (64-bit id) and the sampling decision, in the W3C Trace Context
    vocabulary. Contexts flow three ways:

    - {e ambiently} within a domain: {!with_current} installs a context
      for the dynamic extent of a call, {!current} reads it.
      [Span.with_] pushes a child context around every traced span, so
      [Ledger] records and nested spans pick up the innermost span id
      without any plumbing;
    - {e explicitly} across domains: [Urs_exec.Pool] {!capture}s the
      submitter's context at enqueue time and {!restore}s it inside the
      worker domain, so spans run by the pool parent correctly across
      the domain boundary;
    - {e textually} across processes: {!to_traceparent} /
      {!of_traceparent} round-trip the [00-<trace>-<span>-<flags>]
      header carried by HTTP requests (and the [URS_TRACEPARENT]
      environment variable read by the CLI).

    Ids come from a private splitmix64 stream. {!set_seed} makes them
    deterministic (test goldens); unseeded, the stream self-seeds from
    the wall clock and pid on first use.

    The ambient cell is domain-local (like the span stacks in
    {!Span}). Threads of one domain share it — in particular the HTTP
    server thread shares domain 0 with the main thread — so request
    handling passes its context explicitly ([Ledger.record ?context])
    rather than installing it ambiently. *)

type t = {
  trace_hi : int64;  (** high 64 bits of the 128-bit trace id *)
  trace_lo : int64;  (** low 64 bits *)
  span_id : int64;  (** the span this context names (nonzero) *)
  sampled : bool;  (** W3C [sampled] flag, carried not enforced *)
}

(** {1 Id generation} *)

val set_seed : int -> unit
(** Make every subsequent id draw deterministic (equal seeds, equal id
    sequences) — for test goldens and reproducible traces
    ([URS_TRACE_SEED] on the CLI). *)

val clear_seed : unit -> unit
(** Back to self-seeding entropy on the next draw. *)

val new_trace : ?sampled:bool -> unit -> t
(** A fresh trace (nonzero 128-bit trace id) with a fresh root span id.
    [sampled] defaults to [true]. *)

val child : t -> t
(** Same trace and sampling decision, fresh span id. *)

(** {1 Rendering} *)

val id_hex : int64 -> string
(** 16 lowercase hex digits. *)

val trace_id_hex : t -> string
(** 32 lowercase hex digits. *)

val span_id_hex : t -> string

(** {1 W3C traceparent} *)

val to_traceparent : t -> string
(** [00-<trace_id_hex>-<span_id_hex>-<01|00>]. *)

val of_traceparent : string -> (t, string) result
(** Parse and validate a [traceparent] header value: version must be
    two lowercase hex digits other than [ff] (version [00] allows
    exactly four fields; higher versions may carry extra fields, which
    are ignored), trace and parent ids must be lowercase hex of the
    right width and not all zeros. The [sampled] flag is bit 0 of the
    flags byte. *)

(** {1 Ambient context} *)

val current : unit -> t option
(** The innermost context installed on the calling domain, if any. *)

val with_current : t -> (unit -> 'a) -> 'a
(** Install [c] as the ambient context for the duration of the call
    (restores the previous value even on raise). *)

val capture : unit -> t option
(** Alias of {!current}, named for the hand-off idiom: capture on the
    submitting domain, {!restore} on the worker. *)

val restore : t option -> (unit -> 'a) -> 'a
(** [restore saved f] runs [f] with the ambient cell set to exactly
    [saved] (including [None]), restoring the previous value after. *)
