(** MWU-based (2+eps, 2f, 2+eps)-approximation for general GCSO
    (Section 3.2, Appendix C).

    Solves the feasibility LP (LP3) with the multiplicative-weight-update
    method; the Oracle and Update procedures run on a BBD tree (ball
    canonical nodes, Section 3.1) instead of touching the constraint
    matrix, and read each rectangle's points from
    {!Geo_instance.rect_members} instead of the paper's range-tree
    canonical nodes (DESIGN.md section 2, substitution 7). The binary
    search runs over a geometric radius grid
    ({!Cso_metric.Guess.radius_grid}) instead of all pairwise distances
    or the paper's WSPD candidate distances (substitution 9).

    Guarantee (Theorem 3.2): at most [(2+eps)k] centers, [2fz] outlier
    rectangles, cost at most [(2+eps) rho*_{k,z}].

    Calibration note (found by [csokit fuzz], fixed here): the theorem's
    [(2+eps)] cost factor assumes the input accuracy is split across the
    radius guesses, the BBD ball queries and the MWU rounds.
    [solve] performs that split internally — each consumer receives
    [eps/5], and since [cost <= 2 (1+eps/5) radius] (rounding invariant)
    while [radius] is within [(1+eps/5)] of the discrete optimum,

      [cost <= 2 (1+eps/5)^2 rho* = (2 + 4 eps/5 + 2 eps^2/25) rho*
             <= (2+eps) rho*]   for [eps <= 5/2],

    with [eps/5 rho*] of headroom absorbing the MWU feasibility slack.
    So [solve ~eps] is an honest end-to-end [(2+eps)] bound (certified by
    the pinned canary in [test/suite_refcheck.ml] and the
    [gcso.mwu_tricriteria] fuzz check). [solve_at] remains the raw
    per-consumer knob: its [eps] goes un-split to the BBD queries and the
    MWU. Note the honest default round count scales as [1/(eps/5)^2] —
    25x the un-split count — so callers on a time budget should pass
    [rounds] explicitly. *)

type prepared
(** Instance with its BBD tree and the points of each rectangle; build
    once, then try many radius guesses. *)

val prepare : Geo_instance.t -> prepared

val solve_at : ?eps:float -> ?rounds:int -> ?cover_mult:float ->
  ?removal_mult:float -> ?warm_weights:float array ->
  ?on_round:(round:int -> max_violation:float -> unit) ->
  ?on_weights:(float array -> unit) ->
  prepared -> r:float -> Instance.solution option
(** One radius guess: [None] when the MWU certifies (LP3) infeasible at
    radius [cover_mult *. r] (default [1.]). [rounds] overrides the
    theoretical [O((k+z) log n / eps^2)] iteration count and must be at
    least [1]; {!Cso_lp.Mwu.run} raises [Invalid_argument] otherwise.
    [removal_mult] (default [2.]) is the rounding removal radius
    multiplier; Section 3.3 passes [10.] / [20.]. [warm_weights] /
    [on_weights] pass through to
    {!Cso_lp.Mwu.run}: seed the constraint weights from a prior run and
    observe them per round.

    The MWU oracle is {e batched}: the canonical ball nodes are
    flattened to CSR once per guess, and a round allocates nothing per
    node. The Oracle runs one sequential scatter and one pooled gather
    over the BBD tree, weighs each rectangle in one pass over its member
    points, ascending, and selects with {!top_k}; the Update counts each
    constraint's hits from the chosen points and rectangles only.
    Bit-identical — weights, round counts, solutions, and every counter
    and histogram event — to {!solve_at_reference}. *)

val solve_at_reference : ?eps:float -> ?rounds:int -> ?cover_mult:float ->
  ?removal_mult:float -> ?warm_weights:float array ->
  ?on_round:(round:int -> max_violation:float -> unit) ->
  ?on_weights:(float array -> unit) ->
  prepared -> r:float -> Instance.solution option
(** The pre-batching per-constraint oracle (list walks, per-round
    allocations), kept as the differential baseline {!solve_at} is
    pinned against — same arguments, bit-identical results and
    observability events. Test/reference only: slower, and nothing in
    the production call graph uses it. *)

val top_k : float array -> int -> int list
(** [top_k w k] is the indices of the [k] largest weights, largest
    first: exactly {!top_k_reference}[ w k], ties, [-0.]/[0.], nan and
    infinities included, without sorting [w] unless the [k + 1] largest
    keys hold a tie. Then it sorts every id with
    {!Cso_metric.Float_sort.ids_by_key_desc}, which leaves [Array.sort]'s
    exact permutation, in scratch the Oracle reuses across a guess's
    rounds. The Oracle's selection. *)

val top_k_reference : float array -> int -> int list
(** The first [min k n] indices of [Array.sort] under
    [fun a b -> Float.compare w.(b) w.(a)] — the reference oracle's
    selection. *)

type report = {
  solution : Instance.solution;
  radius : float;
  rounds_per_guess : int;
  guesses : int;
}

val solve : ?eps:float -> ?rounds:int -> ?candidates:float array ->
  ?warm_weights:float array -> ?on_weights:(float array -> unit) ->
  Geo_instance.t -> report
(** Binary search over {!Cso_metric.Guess.radius_grid} at ratio
    [1 + eps/5]: [0.], then powers of [1 + eps/5] from half the smallest
    coordinate gap up to the bounding-box diagonal, and a top guess of
    four times the last value. Some grid value lies in
    [[rho*, (1+eps/5) rho*]] for the discrete optimum [rho*], and the
    search accepts it, so the accepted radius is within [(1+eps/5)] of
    [rho*]. The grid holds about [log_{1+eps/5} (hi/lo)] values, a
    number set by the coordinates' spread, not by [n]: the search takes
    8–9 guesses on the planted workloads from n = 300 to 3,200. Building
    it costs one sort per coordinate. [candidates]
    substitutes an explicit sorted guess lattice used as-is (e.g. all
    exact pairwise distances, or the inflated WSPD lattice, for the
    granularity ablation; the (2+eps) bound then needs a lattice value
    in [[opt, (1+eps/5) opt]]). [eps] (default [0.3], must lie in
    [(0, 2.5]]) is the end-to-end accuracy: it is split
    [eps/5]-per-consumer internally (see the calibration note above),
    including the default MWU round count. [rounds], when given, must be
    at least [1]: raises [Invalid_argument] otherwise.

    [warm_weights] seeds every guess's MWU at the given per-point
    weights (length [n], indexed like the instance's points).
    [on_weights], unlike the per-round callback of {!Cso_lp.Mwu.run},
    fires at most once per [solve]: with the final weight vector of the
    accepted (smallest feasible) guess — the snapshot worth feeding back
    as [warm_weights] of a perturbed re-solve.

    Under [gcso.solve], a solve records the {!Cso_obs.Obs} spans
    [gcso.prepare], [gcso.lattice] (unless [candidates] is given), one
    [gcso.guess] per binary-search guess (holding its [mwu.run]) and a
    [gcso.round] inside each guess that rounds a feasible LP. *)

(** Keep a GCSO instance queryable under point inserts/deletes and
    rectangle (outlier-set) inserts/deletes without re-solving per
    update. Point updates go to one logarithmic-method dynamic ball tree
    ({!Cso_geom.Dynamic.Ball}) plus an insert-only streaming doubling
    k-center sketch ({!Cso_kcenter.Streaming}); {!Incremental.query}
    returns the cached report until the sketch certifies that covering
    the current population needs more than [drift] times the sketch's
    own covering bound at the last re-solve (the tri-criteria radius is
    not comparable: its center blow-up puts it below any (k+z)-center
    bound), or the live count halves/doubles, which covers deletion
    drift the insert-only sketch cannot see. A rectangle update always
    forces the next query to re-solve — it changes the constraints,
    which no point-side signal can certify. A re-solve rebuilds the
    static instance from the live points and live rectangles and
    warm-starts its MWU from the previous accepted-guess weights,
    mapped across the two populations by stable external constraint id
    (points and rects each draw from dense, never-reused id sequences);
    constraints unseen at the prior solve enter at the MWU weight floor
    ({!Cso_lp.Mwu.min_weight_factor}). *)
module Incremental : sig
  type t

  type orphan = { rect_id : int; witness : int }
  (** Typed rejection of a {!delete_rect} that would leave live point
      [witness] (the smallest such external id) inside no rectangle. *)

  val create : ?eps:float -> ?rounds:int -> ?drift:float ->
    rects:Cso_geom.Rect.t array -> k:int -> z:int -> unit -> t
  (** Initial rectangle set (non-empty; rect [i] of the array gets
      external rect id [i]), [k], [z]; the point population starts
      empty. [eps] (default [0.3]) and [rounds] (when given, at least
      [1]) are handed to {!solve} at every re-solve; [drift] (default
      [2.], must be [>= 1.]) is the sketch-radius growth factor that
      triggers one. Raises [Invalid_argument] on a value out of range,
      so a bad [rounds] is refused here rather than at the first
      re-solve. *)

  val insert : t -> Cso_metric.Point.t -> int
  (** O(log n) amortized (plus the sketch's O(k+z) scan). Returns the
      point's external id. Raises [Invalid_argument] if the point lies
      in no live rectangle (it could never be clustered nor
      outliered). *)

  val delete : t -> int -> unit
  (** Tombstones the id in the dynamic ball tree. Raises
      [Invalid_argument] if the id is unknown or already deleted. *)

  val insert_rect : t -> Cso_geom.Rect.t -> int
  (** Adds a rectangle (outlier set) and returns its external rect id —
      dense creation order, never reused. Forces the next {!query} to
      re-solve. Raises [Invalid_argument] on a dimension mismatch. *)

  val delete_rect : t -> int -> (unit, orphan) result
  (** Removes the rectangle, unless some live point would be left in no
      rectangle — then [Error] names the offending rect and the
      smallest orphaned point id, and nothing changes. On [Ok] the next
      {!query} re-solves. Raises [Invalid_argument] if the rect id is
      unknown or already deleted. Costs one closed-bounds containment
      test per live point, plus a scan of the live rect list for each
      point inside the doomed rectangle. *)

  val rects : t -> (int * Cso_geom.Rect.t) list
  (** Live rectangles as [(external id, rect)], ascending by id. *)

  val rect_count : t -> int
  val next_rect_id : t -> int
  (** Total rect inserts so far (initial array included); external rect
      ids are drawn from [0 .. next_rect_id - 1]. *)

  val query : t -> report * int array * int array
  (** The current solution plus the instance-index -> external-id maps
      it is expressed under: centers and the solution's point indices
      translate through the first array, outlier rect indices through
      the second. Served from cache unless {!needs_resolve}; an empty
      population yields an empty report (with the rect-id map of the
      live rects). *)

  val needs_resolve : t -> bool
  (** True when the next {!query} will pay a re-solve. *)

  val live_count : t -> int
  val live_ids : t -> int list
  val point : t -> int -> Cso_metric.Point.t
  val re_solves : t -> int
  (** Re-solves performed so far (each also counted by the
      [cso.gcso.inc.re_solves] counter). *)

  val ball_stats : t -> Cso_geom.Dynamic.stats
  (** Update/rebuild statistics of the underlying dynamic ball tree
      (lifetime inserts, deletes, rebuild work) — the per-instance
      numbers [csokitd]'s [Stats] snapshot reports. *)

  (** {3 Warm-weight mapping observability}

      Test hooks for the stable constraint-id scheme; none of them
      perturbs the solver state. *)

  val stored_weights : t -> (int * float) list
  (** The accepted-guess MWU weights stored at the last re-solve, keyed
      by external point id, ascending. Empty before the first solve. *)

  val last_warm : t -> (int array * float array) option
  (** The warm vector actually fed to the most recent re-solve that ran
      the MWU (external ids and their weights, instance order), [None]
      if that solve started cold. *)

  val prior_constraints : t -> int
  (** The constraint count the stored weights were normalized over. *)

  (** {3 Queries between re-solves}

      Direct views of the dynamic ball tree, so a server can answer
      ball lookups against the live population without paying (or
      triggering) a solve. External-id answers, bit-identical to the
      corresponding {!Cso_geom.Dynamic.Ball} calls. *)

  val live_points : t -> (int * Cso_metric.Point.t) list
  (** Ascending by external id; coordinates are fresh copies. *)

  val ball_points : t -> center:Cso_metric.Point.t -> radius:float ->
    eps:float -> int list
  (** Sandwich-guarantee ball over the live set (external ids,
      ascending). *)

  val ball_report : t -> center:Cso_metric.Point.t -> radius:float ->
    int list
  (** Exact closed ball over the live set (external ids, ascending). *)
end
