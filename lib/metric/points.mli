(** Packed structure-of-arrays point store.

    [Point.t array] keeps one boxed float array per point; every distance
    evaluation chases a pointer per operand, which dominates wall-clock on
    the hot kernels even though the complexity accounting (distance
    evaluations, [lib/obs]) is identical. This module stores all [n]
    points of a fixed dimension [dim] in one row-major [float array] and
    evaluates distances by index, with dimension-specialized kernels
    (unrolled [d = 2/3/4] fast paths, [Array.unsafe_get] inner loops).

    Contract with {!Point}: for the same coordinates, every kernel here
    returns the {e bit-identical} float the corresponding [Point] kernel
    returns, and bumps the same [metric.dist_evals] counter exactly once
    per call — packed and boxed paths are interchangeable event for
    event. Use [Points] for bulk stores on hot paths (trees, k-center,
    GCSO sweeps); use [Point] for individual points, I/O and tests.

    A store is immutable after construction and safe to read from any
    number of domains concurrently. *)

type t = private {
  data : float array;  (** row-major, length [n * dim] *)
  n : int;
  dim : int;
}

val of_array : Point.t array -> t
(** Packs a boxed point array. All points must share one dimension;
    raises [Invalid_argument] otherwise. The empty array packs to an
    empty store with [dim = 0]. *)

val length : t -> int
(** Number of points. *)

val dim : t -> int
(** Dimension of every point ([0] for the empty store). *)

val coord : t -> int -> int -> float
(** [coord t i j] is coordinate [j] of point [i] (bounds-checked by the
    array access). *)

val blit_point : t -> int -> float array -> unit
(** [blit_point t i dst] copies point [i] into [dst.(0 .. dim-1)].
    Raises [Invalid_argument] if [dst] is shorter than [dim]. *)

(** {2 Index-based distance kernels}

    Each raises [Invalid_argument] on out-of-range indices and counts one
    [metric.dist_evals] event, exactly like the [Point] kernels. *)

val l2_sq_idx : t -> int -> int -> float
(** Squared Euclidean distance between points [i] and [j]. *)

val l2_idx : t -> int -> int -> float
(** Euclidean distance. *)

val l2_sq_to : t -> int -> float array -> unit
(** [l2_sq_to t i dst] writes into [dst.(j)] the squared Euclidean
    distance from point [i] to point [j], for every [j < length t], in
    one pass over the store. Each [dst.(j)] is bit-identical to
    [l2_sq_idx t i j], and the call counts [length t]
    [metric.dist_evals] events — the same counter delta as the
    per-index loop; only the per-call overhead is amortized. Raises
    [Invalid_argument] if [i] is out of range or [dst] is shorter than
    [length t]. *)
