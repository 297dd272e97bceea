(** Dense complex vectors backed by [Cx.t array]. *)

type t = Cx.t array

val init : int -> (int -> Cx.t) -> t

val of_real : Vec.t -> t
(** Embed a real vector. *)

val of_interleaved : Vec.t -> t
(** [of_interleaved y] is [u] with [u_i = y_{2i} + i·y_{2i+1}]: a vector
    of the interleaved real form of a complex matrix back in complex
    form. Raises [Invalid_argument] if [y] has odd length. *)

val scale : Cx.t -> t -> t
(** Scalar multiple. *)

val sum : t -> Cx.t
(** Sum of components. *)

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float
(** Largest component modulus. *)

val normalize : t -> t
(** Unit Euclidean norm; raises [Invalid_argument] on zero. Also rotates
    the vector so its largest component is real positive, fixing the
    arbitrary phase (useful for comparing eigenvectors). *)

val max_abs_index : t -> int
(** Index of the component with largest modulus. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Same length and [‖u − v‖∞ <= tol] (default [1e-9]). *)
