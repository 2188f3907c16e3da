(** Finite metric spaces over indexed elements.

    A space holds [size] elements addressed by indices [0 .. size-1] and a
    symmetric distance function. All CSO algorithms for general metrics
    (paper Section 2) are written against this interface, so the same code
    runs on Euclidean point sets, explicit distance matrices, or any other
    metric the caller supplies. *)

type t = private {
  size : int;
  dist : int -> int -> float;
}

val create : size:int -> dist:(int -> int -> float) -> t
(** [create ~size ~dist] wraps a distance function. The function must be a
    metric (symmetric, zero on the diagonal, triangle inequality); this is
    not checked here but {!is_metric} can verify it in tests.

    The bulk operations ({!cached}, {!pairwise_distances}) and the
    k-center algorithms built on spaces evaluate [dist] from several
    domains concurrently (see [Cso_parallel.Pool]); [dist] must therefore
    be safe to call in parallel — pure functions of [(i, j)], matrix
    lookups and point-array distances all qualify. *)

val of_points : Point.t array -> t
(** Euclidean space over points ({!Point.l2}). Distances are computed on
    demand, not cached. *)

val of_matrix : float array array -> t
(** Space given by an explicit (symmetric) distance matrix.
    Raises [Invalid_argument] if the matrix is not square. *)

val cached : t -> t
(** [cached s] precomputes the full distance matrix of [s]. Use when the
    algorithm will probe most pairs (O(size^2) memory). Only the upper
    triangle (diagonal included) is evaluated; the lower triangle is
    mirrored, which relies on the symmetry [create] already requires and
    halves the distance evaluations of the fill. *)

val cost : t -> centers:int list -> int list -> float
(** [cost s ~centers pts] is the k-center clustering cost
    [rho(centers, pts)]: the maximum over [pts] of the distance to the
    nearest center. Returns [0.] if [pts] is empty, [infinity] if [pts] is
    non-empty but [centers] is empty. *)

val nearest_center : t -> centers:int list -> int -> int * float
(** [nearest_center s ~centers p] is the closest center to [p] and its
    distance. Raises [Invalid_argument] if [centers] is empty. *)

val pairwise_distances : t -> float array
(** All n(n-1)/2 pairwise distances, sorted increasingly, deduplicated,
    with 0. prepended. This is the list [D] the paper binary-searches. *)

val ball : t -> center:int -> radius:float -> int list
(** [ball s ~center ~radius] is [B(center, radius)]: all indices within
    distance [radius] (inclusive) of [center]. *)

val is_metric : ?eps:float -> t -> bool
(** Exhaustive O(n^3) metric-axiom check, for tests on small spaces. *)
