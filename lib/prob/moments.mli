(** Small helpers for working with raw moments. *)

val factorial : int -> float
(** [k!] as a float; [k >= 0]. *)

val reduced : int -> float -> float
(** [reduced k m] is [m / k!] — the "reduced moment" [u_k = M_k/k!] of a
    hyperexponential, equal to [Σ αⱼ tⱼᵏ] with [tⱼ = 1/ξⱼ]. *)
