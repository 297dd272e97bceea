(** Iteration-level convergence telemetry for the numerical core.

    The iterative kernels (QR eigensolve, Brent/bisection root finding,
    the matrix-geometric R fixed point, uniformization) sit below this
    library and expose optional per-iteration callbacks instead of
    recording anything themselves. Each solver runs its kernel through
    {!track}, which wires those callbacks to a {!recorder}: a bounded
    ring of per-iteration samples
    (residual, shift, active size, wall-clock time) plus a Welford
    summary of the residual series. Finished recorders become immutable
    {!trace}s kept in a process-global ring, appended to the
    {!Ledger} as ["convergence"] records (stamped with the ambient
    {!Context} trace), exportable as JSON (the [/convergence] HTTP
    route, [urs inspect]) and as Perfetto counter tracks
    (residual-vs-time, merged into [--trace-format perfetto]).

    Recording is off by default and gated by a global flag, so the
    kernels pay nothing in ordinary solves; the callbacks only read
    values the iterations already computed, so results are bit-identical
    with recording on or off. Recorders are mutex-guarded and the global
    ring is shared safely across pool domains. *)

type sample = {
  iteration : int;  (** 1-based iteration / sweep number. *)
  residual : float;
      (** The per-iteration convergence figure (sub-diagonal magnitude,
          bracket width, entrywise delta, Poisson tail weight); [nan]
          when the event carried none. *)
  shift : float;  (** Shift (QR) or best estimate (root finding); [nan] if n/a. *)
  active : int;
      (** Monotone progress figure: rows not yet deflated (QR), or [0]
          when the solver has no deflation notion. *)
  deflation : bool;  (** This sample marks a deflation event. *)
  t : float;  (** {!Span.now} at record time. *)
}

type trace = {
  seq : int;  (** Process-global 1-based trace number. *)
  solver : string;  (** ["qr"], ["brent"], ["bisect"], ["mg_r"], ["uniformization"]. *)
  label : string;  (** Call-site label, e.g. ["spectral N=5 s=21"]. *)
  started : float;
  finished : float;
  iterations : int;  (** Highest iteration number observed. *)
  max_iter : int option;
      (** Iteration cap of the kernel, when known. For ["qr"] traces it
          bounds the QR/QL sweeps per eigenvalue, i.e. between two
          deflations, not [iterations] (which totals the sweeps over all
          eigenvalues); for the other solvers it bounds [iterations]. *)
  converged : bool;
  deflations : int;  (** Deflation events observed. *)
  dropped : int;  (** Samples that fell out of the bounded ring. *)
  samples : sample array;  (** Chronological; at most the ring capacity. *)
  residual_first : float;  (** First finite residual ([nan] if none). *)
  residual_last : float;  (** Last finite residual ([nan] if none). *)
  residual_min : float;
  residual_mean : float;  (** Welford mean over all finite residuals. *)
  residual_count : int;  (** Finite residuals observed (includes dropped). *)
}

(** {1 Recording} *)

val recording : unit -> bool
(** The global gate consulted by {!track}. Off by default. *)

val set_recording : bool -> unit

val with_recording : (unit -> 'a) -> 'a * trace list
(** [with_recording f] forces recording on around [f] (restoring the
    previous state) and returns [f ()] together with the traces
    finished during the call, oldest first. *)

type observer =
  iteration:int ->
  ?residual:float ->
  ?shift:float ->
  ?active:int ->
  ?deflation:bool ->
  unit ->
  unit
(** Appends one sample to a live recorder (see {!observe}). *)

val track :
  ?max_iter:int ->
  solver:string ->
  label:(unit -> string) ->
  callback:(observer -> 'cb) ->
  converged:('a -> bool) ->
  ('cb option -> 'a) ->
  'a
(** [track ~solver ~label ~callback ~converged kernel] is how a solver
    records an iterative kernel, and the only place the solvers create
    and finish recorders. With {!recording} off it is [kernel None]: no
    recorder, no trace, and [label] is never called. With it on, a
    recorder labelled [label ()] is created, the kernel gets
    [Some (callback obs)] — [callback] adapts the sample observer to
    the kernel's own callback type ([Fun.id] for a loop that calls it
    directly) — and the recorder is finished with [converged v] when
    the kernel returns [v], or as not converged when it raises, in
    which case the exception is re-raised with its backtrace. A kernel
    whose loop state is a float ref should declare it inside [kernel]:
    a ref captured by a closure is boxed. *)

(** {1 Manual recorders} — what {!track} drives; tests use them
    directly. *)

type recorder

val create :
  ?capacity:int ->
  ?max_iter:int ->
  solver:string ->
  label:string ->
  unit ->
  recorder
(** A fresh recorder; [capacity] bounds the sample ring (default
    [512]; older samples are dropped but still count in the Welford
    summary and [iterations]). *)

val observe :
  recorder ->
  iteration:int ->
  ?residual:float ->
  ?shift:float ->
  ?active:int ->
  ?deflation:bool ->
  unit ->
  unit
(** Append one sample. Thread-safe (per-recorder mutex), though kernels
    iterate sequentially. *)

val finish : ?converged:bool -> recorder -> trace
(** Seal the recorder (idempotent: later calls return the same trace).
    The trace enters the global recent ring, updates the
    [urs_convergence_iterations{solver=...}] gauge and appends a
    ["convergence"] ledger record — parameters carry solver/label/cap,
    the summary the iteration and residual digest — stamped with the
    ambient trace context. [converged] defaults to [true]. *)

(** {1 Global trace ring} *)

val recent : ?limit:int -> unit -> trace list
(** Most recently finished traces, oldest first. *)

val reset : unit -> unit
(** Clear the ring and the recording flag — tests. *)

(** {1 Export} *)

val trace_to_json : trace -> Json.t

val to_json : ?limit:int -> unit -> Json.t
(** [{"traces": [...]}] over {!recent}. *)

val perfetto_events : unit -> Json.t list
(** One counter track (ph ["C"]) per recent trace, named
    ["conv:<solver>:<seq>"]: each sample becomes a counter event with
    args [residual] (omitted when not finite) and [remaining] (the
    [active] figure), timestamped in trace-epoch microseconds — ready
    to merge into {!Span.trace_perfetto}'s [?extra]. *)

val pp_trace : Format.formatter -> trace -> unit
(** One-line digest: solver, label, iterations, residual path. *)
