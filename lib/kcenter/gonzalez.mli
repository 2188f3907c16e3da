(** Gonzalez's farthest-point k-center algorithm [42].

    2-approximation for k-center without outliers; the workhorse inside
    the paper's coreset constructions (Section 2.3) where it is run
    independently on every candidate outlier set. *)

val run : ?first:int -> Cso_metric.Space.t -> subset:int array -> k:int ->
  int list * float
(** [run s ~subset ~k] clusters the elements [subset] of [s] and returns
    [(centers, radius)] where [centers] (at most [k] of them, drawn from
    [subset]) cover [subset] within [radius]. If [subset] has at most [k]
    elements every element becomes a center and the radius is [0.].
    [first] selects the initial center (defaults to [subset.(0)]);
    raises [Invalid_argument] if [first] is not a member of [subset] (a
    stray index would silently become a center outside the requested
    subset). Returns [([], 0.)] on an empty subset. On inputs whose
    distinct points number fewer than [k], the relaxation stops early and
    returns the already-chosen centers with radius [0.].

    Distance updates and farthest-point scans run on the default
    [Cso_parallel.Pool]; the output is bit-identical for every pool
    size. *)

val run_all : ?first:int -> Cso_metric.Space.t -> k:int -> int list * float
(** [run_all s ~k] clusters all of [s]. *)

val run_points : Cso_metric.Point.t array -> k:int -> int list * float
(** Euclidean convenience wrapper (this is our Feder–Greene [40]
    stand-in, see DESIGN.md substitution 3). *)

val run_packed : Cso_metric.Points.t -> k:int -> int list * float
(** Same output as {!run_points} over the same coordinates, bit for
    bit, but prunes distance computations with the triangle inequality:
    when a new center [c] is at distance [>= 2 d_i] from point [i]'s
    current center, [d(c, i)] cannot improve [d_i] and is skipped.
    Large constant-factor speedups on clustered inputs with many
    centers. All distances go through [Points.l2_idx], so no boxed
    point is touched in the inner loops. Raises [Invalid_argument] when
    [k <= 0] on a non-empty store. *)

val budgets : Cso_obs.Obs.Budget.t list
(** Declared complexity budget for the distance-evaluation series of the
    Gonzalez kernel ([metric.dist_evals] at fixed k): O(nk) work means a
    fitted log-log exponent of ~1 in n. Checked by [bench/fig_budgets]
    and [csokit budgets]. *)
