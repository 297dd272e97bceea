(** Dense real vectors backed by [float array].

    All functions are total unless stated otherwise; dimension mismatches
    raise [Invalid_argument]. Vectors are mutable; functions ending in
    [_inplace] mutate their first argument, all others allocate. *)

type t = float array

val create : int -> t
(** [create n] is a zero vector of dimension [n]. *)

val init : int -> (int -> float) -> t
(** [init n f] is the vector [| f 0; ...; f (n-1) |]. *)

val dim : t -> int
(** Number of components. *)

val copy : t -> t
(** A fresh copy. *)

val of_list : float list -> t
(** Vector from a list of components. *)

val to_list : t -> float list
(** Components as a list. *)

val fill : t -> float -> unit
(** [fill v x] sets every component of [v] to [x]. *)

val add : t -> t -> t
(** Component-wise sum. *)

val sub : t -> t -> t
(** Component-wise difference. *)

val scale : float -> t -> t
(** [scale a v] is [a * v]. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y]. *)

val dot : t -> t -> float
(** Inner product. *)

val sum : t -> float
(** Sum of components. *)

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float
(** Maximum absolute component. *)

val normalize : t -> t
(** [normalize v] is [v] scaled to unit Euclidean norm. Raises
    [Invalid_argument] on the zero vector. *)

val map : (float -> float) -> t -> t
(** Component-wise map. *)

val map2 : (float -> float -> float) -> t -> t -> t
(** Component-wise binary map. *)

val max_abs_index : t -> int
(** Index of the component with the largest absolute value. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** [approx_equal ~tol u v] is true when [norm_inf (u - v) <= tol]
    (default [tol = 1e-9]) and dimensions agree. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer, e.g. [[1.0; 2.5]]. *)
