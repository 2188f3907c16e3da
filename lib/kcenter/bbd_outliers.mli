(** Sampling-based k-center with outliers in [R^d] (paper Appendix E).

    Implements the algorithm of Charikar, O'Callaghan and Panigrahy [22]:
    draw [tau = Theta(k log n / (eps^2 delta))] samples ([delta = z/n]),
    then run the greedy of [21] on the samples — here accelerated with a
    BBD tree exactly as Appendix E describes (active canonical nodes,
    counts within approximate balls). Guarantees, with high probability:
    at most [(1+eps)^2 z] outliers and radius [<= (3+eps) opt]. *)

type result = {
  centers : int list; (* indices into the input array, at most k *)
  radius : float; (* covering radius threshold on the samples *)
  sample_size : int;
  sample_outliers : int; (* uncovered samples at the final radius *)
}

val run : ?rng:Random.State.t -> ?eps:float -> Cso_metric.Point.t array ->
  k:int -> z:int -> result
(** [eps] defaults to [0.25]. When the sample budget reaches [n] the
    whole input is used (no sampling, exact version of App. E). *)

val run_on_all : ?eps:float -> Cso_metric.Point.t array -> k:int ->
  budget:int -> result
(** The BBD-accelerated greedy + binary search on exactly the given
    points, allowing [budget] of them to stay uncovered. No sampling —
    this is the inner engine [run] applies to its sample, exposed for
    callers (the RCRO algorithm) that sample through their own oracle.
    The search runs over {!Cso_metric.Guess.radius_grid} at ratio
    [1 + eps], so the accepted guess lies within [(1+eps)] of the
    smallest pairwise distance from which the greedy accepts every
    guess. *)

val outliers_at : Cso_metric.Point.t array -> centers:int list ->
  threshold:float -> int list
(** Points farther than [threshold] from every center: the outlier set
    [T] induced on the full input by a sample solution. *)
