(** Points in [R^d], represented as float arrays.

    All geometric algorithms in this repository operate on values of type
    {!t}. Points are immutable by convention: no function in this library
    mutates a point after creation. *)

type t = float array

val dim : t -> int
(** [dim p] is the dimension of [p]. *)

val make : float list -> t
(** [make coords] builds a point from a coordinate list. *)

val equal : t -> t -> bool
(** Structural equality on coordinates. *)

val compare : t -> t -> int
(** Lexicographic comparison. *)

val l2 : t -> t -> float
(** Euclidean distance. Raises [Invalid_argument] on dimension mismatch. *)

val l2_sq : t -> t -> float
(** Squared Euclidean distance (avoids the square root). *)

val linf : t -> t -> float
(** Chebyshev ([L_inf]) distance. *)

val pp : Format.formatter -> t -> unit
(** Prints as [(x1, x2, ...)]. *)

val to_string : t -> string
