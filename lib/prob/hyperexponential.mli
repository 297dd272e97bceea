(** The n-phase hyperexponential distribution: a probabilistic mixture of
    [n] exponentials,
    [f(x) = Σⱼ αⱼ ξⱼ exp(−ξⱼ x)] with [αⱼ, ξⱼ > 0], [Σ αⱼ = 1]
    (paper, eq. (5)). Its squared coefficient of variation is always
    [>= 1], which is what makes it a good model for the observed
    operative periods. *)

type t

val create : weights:float array -> rates:float array -> t
(** [create ~weights ~rates] validates: equal nonzero lengths, weights
    nonnegative summing to 1 within [1e-9] (then renormalized exactly),
    rates positive. *)

val of_pairs : (float * float) list -> t
(** [(weight, rate)] pairs. *)

val phases : t -> int
val weights : t -> float array
val rates : t -> float array

val mean : t -> float
(** [Σ αⱼ/ξⱼ] (paper, eq. (10)). *)

val variance : t -> float

val scv : t -> float
(** Squared coefficient of variation [M₂/M₁² − 1]. *)

val moment : t -> int -> float
(** [moment d k = Σⱼ k! αⱼ / ξⱼᵏ] (paper, eq. (6)); [k >= 1]. *)

val pdf : t -> float -> float
val cdf : t -> float -> float

val quantile : t -> float -> float
(** Inverse CDF by monotone bisection. *)

val sample : t -> Rng.t -> float
(** Pick a phase by weight, then sample that exponential. *)

val pp : Format.formatter -> t -> unit
