(** Deliberately naive reference implementations ("oracles").

    Every function is an exhaustive, pruning-free transcription of a
    definition from the paper — quadratic to exponential, usable only on
    the tiny instances the fuzzer generates, and obviously correct by
    inspection. The optimized substrates ([Bbd_tree], [Range_tree],
    [Gonzalez], [Charikar_outliers], [Simplex], [Yannakakis],
    [Cso_general], ...) are differentially checked against these.
    {!wspd_candidate_distances}, {!box_complement}, {!simplex_solve}
    and {!any_in_rect} are the exception: the earlier implementation of
    a substrate rewritten for speed, which the rewrite must match bit
    for bit. {!cso_lp1} is the LP a solver stopped building, kept so
    that its replacement can be checked against it. *)

val subsets_up_to : 'a list -> int -> 'a list list
(** All subsets of size at most [r] (the enumeration backbone of the
    exhaustive solvers below). *)

val ball :
  Cso_metric.Point.t array ->
  center:Cso_metric.Point.t -> radius:float -> int list
(** Indices within (closed) Euclidean distance [radius] of [center], by
    linear scan. *)

val range_report : Cso_metric.Point.t array -> Cso_geom.Rect.t -> int list
(** Indices inside the rectangle, by linear scan. *)

val wspd_candidate_distances :
  ?eps:float -> Cso_metric.Points.t -> float array
(** The WSPD candidate lattice as it was built before the fair-split
    tree went flat: option-linked nodes with boxed centers, a pair
    list and [Array.sort Float.compare] on the boxed distances, with
    the same [geom.wspd.*], [metric.dist_evals] and
    [geom.wspd.pair_sep_ratio] events, published one at a time.
    {!Cso_geom.Wspd.candidate_distances_packed} must match it bit for
    bit and event for event. *)

val box_complement :
  ?domain:Cso_geom.Rect.t -> Cso_geom.Rect.t list -> int ->
  Cso_geom.Rect.t list
(** [Cso_geom.Box_complement.decompose] as it was before its breakpoint
    arrays and scratch witness, kept verbatim: the rewrite must return
    the same cells in the same order, bit for bit. *)

val simplex_solve : Cso_lp.Simplex.problem -> Cso_lp.Simplex.outcome
(** [Cso_lp.Simplex.solve] as it was before its tableau went flat: a
    row-of-rows tableau with the same Bland pricing, publishing the same
    [lp.simplex.*] counters, [lp.simplex.pivots_per_solve] histogram and
    [simplex.solve] span. [Simplex.solve] must match it bit for bit and
    event for event. Expects a problem that passes [Simplex.solve]'s
    validation. *)

val kcenter_cost :
  Cso_metric.Space.t -> centers:int list -> int list -> float
(** [max over pts of min over centers of dist] by double loop. *)

val kcenter_opt : Cso_metric.Space.t -> subset:int list -> k:int -> float
(** Optimal k-center cost over [subset] (centers drawn from [subset]),
    by exhaustive enumeration of all center sets of size [<= k]. *)

val kcenter_outliers_opt : Cso_metric.Space.t -> k:int -> z:int -> float
(** Optimal k-center cost after discarding at most [z] points, by
    enumerating every outlier set and every center set. *)

val cso_opt : Cso_core.Instance.t -> float
(** The exact CSO optimum [rho*_{k,z}] by enumerating every outlier-set
    family of size [<= z] and every center set of size [<= k] among the
    survivors. Independent of {!Cso_core.Exact} (which it cross-checks). *)

val cso_lp1 : ?cover_mult:float -> Cso_core.Instance.t -> r:float ->
  Cso_lp.Simplex.problem
(** (LP1) of Section 2.2 at guess [r], as [Cso_core.Cso_general] built
    it before it solved the packing dual: variables [x_0 .. x_{n-1}],
    [y_0 .. y_{m-1}] in [[0, 1]]; rows [sum x <= k], [sum y <= z] and,
    per element [i], [sum_{l in B(p_i, cover_mult * r)} x_l +
    sum_{j in L_i} y_j >= 1]. [Cso_general.lp_point] must agree with
    its feasibility and return one of its feasible points. *)

val greedy_cover : Cso_setcover.Set_cover.t -> int list
(** Classic greedy set cover with per-step gain recomputation. *)

val cover_opt_size : Cso_setcover.Set_cover.t -> int
(** Minimum cover cardinality by enumerating all [2^m] subfamilies. *)

val join : Cso_relational.Instance.t -> Cso_metric.Point.t list
(** The full natural join by nested loops over the cartesian product of
    all relations, sorted and deduplicated. *)

val any_in_rect :
  Cso_relational.Instance.t -> Cso_relational.Join_tree.t ->
  Cso_geom.Rect.t -> Cso_metric.Point.t option
(** The rectangle oracle before prepared handles: one
    [relational.oracle.any_in_rect] count, then
    [Yannakakis.any (Instance.filter_rect inst rect) tree].
    {!Cso_relational.Oracles.any_in_rect} must match it bit for bit and
    count for count. *)
