(** Francis implicit double-shift QR iteration for the eigenvalues of a
    real upper Hessenberg matrix. Complex eigenvalues appear in
    conjugate pairs. Eigenvalues only (no Schur vectors); combine with
    inverse iteration ({!Clu.null_vector}) when eigenvectors of the
    original problem are needed. *)

exception
  No_convergence of { dim : int; block : int; iterations : int }
(** Raised when an eigenvalue fails to converge: [dim] is the order of
    the matrix, [block] the index of the stuck trailing block and
    [iterations] the number of sweeps spent on it. *)

val total_sweeps : unit -> int
(** Cumulative count of implicit double-shift sweeps performed by this
    process, across all calls — a cheap progress/efficiency counter that
    callers can difference around a solve and feed into a metrics
    registry (this library sits below the observability layer, so it
    cannot record the metric itself). Kept in an [Atomic.t]: the total
    stays exact when pool workers solve concurrently. *)

type event =
  | Sweep  (** An implicit double-shift sweep is about to run. *)
  | Deflate  (** A trailing 1x1 / 2x2 block converged and was removed. *)

type progress = {
  event : event;
  sweeps : int;  (** Sweeps spent on the current trailing block so far. *)
  total : int;  (** Cumulative sweeps in this call. *)
  remaining : int;
      (** Rows not yet deflated (after removal for [Deflate] events);
          non-increasing over a healthy run. *)
  block : int;  (** Active block size (deflated block size on [Deflate]). *)
  residual : float;
      (** Sub-diagonal magnitude at the bottom of the active block
          ([0.] on [Deflate]: the entry was just annihilated). *)
  shift : float;  (** Shift in use ([x] at the block bottom). *)
  exceptional : bool;  (** An exceptional shift was substituted. *)
}
(** One per-sweep / per-deflation observation, passed to [?observe] of
    {!eigenvalues_hessenberg}. The callback must not mutate the matrix;
    it only reads values the iteration already computed, so enabling it
    cannot change the result (this library sits below the observability
    layer — the solver layer wires the callback to a recorder). *)

val eigenvalues_hessenberg :
  ?max_iter:int -> ?observe:(progress -> unit) -> Matrix.t -> Cx.t array
(** [eigenvalues_hessenberg h] computes all eigenvalues of the upper
    Hessenberg matrix [h] (which is copied, not modified).
    [max_iter] bounds the QR sweeps per eigenvalue (default [100]).
    [observe] is invoked once before every sweep and once per deflation.
    Raises [Invalid_argument] if [h] is not square, if its [data] does
    not hold [rows · cols] entries, or if it is not Hessenberg.

    The iteration runs on a flat row-major copy of [h]'s data, with the
    row offsets of each step hoisted out of its loops (an array of rows
    costs a bounds-checked row load per entry without flambda). The last
    step of a sweep, which has no third row, has its own loops, and they
    still add [0.0] where the third term would be: that addition turns a
    [−0] sum into [+0], so every eigenvalue and every observed value,
    signed zeros included, is the one the array-of-rows formulation
    gives. The row and column modifications of each sweep step, the
    iteration's O(n²)-per-sweep work, read and write without bounds
    checks: their indices stay inside the active block of the [n×n]
    copy, whose length the entry checks once. *)
