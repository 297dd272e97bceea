(** The Markovian environment of the multi-server model (paper §3),
    generalized to phase-type period distributions.

    [N] servers each alternate between operative periods and inoperative
    periods. The paper assumes both are hyperexponential; this module
    accepts any (defect-free) phase-type law — hyperexponential, Erlang,
    Coxian — which only changes the environment transition matrix [A];
    the queueing solvers are unchanged. The environment state
    ("operational mode") records how many servers are in each phase:
    [X = (x₁..xₙ)], [Y = (y₁..yₘ)] with [Σx + Σy = N]. The number of
    modes is [s = C(N+n+m−1, n+m−1)] (paper, eq. (12)).

    Modes are enumerated in the paper's order: by ascending number of
    operative servers, then by lexicographically descending [X], then
    descending [Y] — so the worked example for N=2, n=2, m=1 gets
    indices 0..5 exactly as printed in §3.1. *)

type mode = { x : int array;  (** operative counts per phase *)
              y : int array  (** inoperative counts per phase *) }

type t

val create :
  servers:int ->
  operative:Urs_prob.Hyperexponential.t ->
  inoperative:Urs_prob.Hyperexponential.t ->
  t
(** The paper's model: hyperexponential periods. Requires
    [servers >= 1]. *)

val create_ph :
  ?repair_crews:int ->
  servers:int ->
  operative:Urs_prob.Phase_type.t ->
  inoperative:Urs_prob.Phase_type.t ->
  unit ->
  t
(** General phase-type periods. The initial distributions must have no
    defect (no zero-length periods); raises [Invalid_argument]
    otherwise.

    [repair_crews] bounds the number of servers that can be under
    repair simultaneously (default: unlimited, the paper's model). With
    [c] crews the inoperative-side rates are scaled by [min(y,c)/y]
    (crews shared processor-style across the [y] broken servers) — for
    exponential repairs this is exactly a [min(y,c)·η] repair rate.
    Limited crews couple the servers, so {!stationary_mode_probability}
    switches from the closed-form multinomial to a direct solve of the
    environment generator. *)

val repair_capacity : t -> int
(** Number of repair crews ([= servers] when unlimited). *)

val unlimited_repair : t -> bool

val servers : t -> int

val operative : t -> Urs_prob.Phase_type.t
(** The operative-period law, as a phase-type distribution. *)

val inoperative : t -> Urs_prob.Phase_type.t

val num_modes : t -> int
(** [s]. *)

val mode : t -> int -> mode
(** The mode with a given index; raises [Invalid_argument] out of
    range. The returned arrays are fresh copies. *)

val index_of_mode : t -> mode -> int
(** Inverse of {!mode}; raises [Not_found] for vectors that are not a
    valid mode of this environment. *)

val operative_servers : t -> int -> int
(** Number of operative servers [Σ xⱼ] in the given mode. *)

val count_modes : servers:int -> op_phases:int -> inop_phases:int -> int
(** [C(N+n+m−1, n+m−1)] without building the environment. *)

val transition_matrix : t -> Urs_linalg.Matrix.t
(** The s x s matrix [A] of environment transition rates (zero
    diagonal). For hyperexponential periods this is exactly the paper's
    eq. (9): breakdowns at rate [xⱼ ξⱼ βₖ], repairs at rate [yₖ ηₖ αⱼ].
    General phase-type laws additionally contribute within-period phase
    changes at rate [xⱼ·T(j,j')] (respectively [yₖ·T(k,k')]). *)

val stationary_mode_probability : t -> int -> float
(** Exact stationary probability of a mode. Because servers evolve
    independently, it is a multinomial over the per-server stationary
    phase probabilities (phase occupation times per renewal cycle) —
    used as a cross-check oracle for the queueing solvers. *)

val availability : t -> float
(** Long-run fraction of time a server is operative. With unlimited
    repair crews this is [(1/ξ) / (1/ξ + 1/η)] (the paper's [η/(ξ+η)]);
    with limited crews it is computed from the environment's stationary
    distribution. *)

val mean_operative_servers : t -> float
(** [N * availability]. *)
