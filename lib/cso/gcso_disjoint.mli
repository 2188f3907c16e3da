(** Geometric coreset (2+eps, 2, O(1))-approximation for disjoint GCSO
    (Section 3.3, Appendix D; [f = 1]).

    Combines the coreset of Section 2.3 with the MWU solver of Section
    3.2, run on the coreset at radii [10r] / [20r]. Phase 1's
    radius-independent half runs once per solve: each non-empty
    rectangle's members come from the instance's membership
    ({!Geo_instance.rect_members}, which replaces Appendix D's range
    reporting; DESIGN.md section 2), and Gonzalez (our Feder–Greene
    stand-in) gives their centers and covering radius. Each radius guess
    [r] then applies only the [2r] forced-outlier test and the [2r]
    sparsification, prunes dense regions with BBD balls (the index sets
    of Appendix D) and runs the MWU on what survives.

    Guarantee (Theorem 3.3): at most [(2+eps)k] centers, [2z] outlier
    rectangles, cost at most [(1+eps)(34+30 eps) rho*_{k,z}]
    ([55.9 rho*] at [eps = 0.3]). The constant:
    - the [2r] test and the [2r] sparsification leave every point of a
      kept rectangle within [4r] of a coreset point of that rectangle;
    - a pruned ball's members lie within [(1+eps) 15r] of its center
      (BBD sandwich), so within [(1+eps) 30r] of the member that
      represents it;
    - the rounding covers the surviving coreset points with BBD balls of
      radius [20r], so within [(1+eps) 20r];
    - so an accepted guess [r] costs at most [(4 + 30(1+eps)) r]. The
      [10r] radii (the pruning's inner balls, (LP3)'s cover radius)
      decide only which guesses are accepted;
    - the radius grid ({!Cso_metric.Guess.radius_grid} at ratio
      [1 + eps]) holds a guess in [[rho*, (1+eps) rho*]], which is
      accepted, so [r <= (1+eps) rho*].
    The center bound and the last step need the MWU to converge: capped
    [rounds] can miss them. [gcso.disjoint_tricriteria_vs_opt] checks
    all three bounds against the exhaustive optimum. *)

val solve_core :
  ?eps:float -> ?rounds:int -> points:Cso_metric.Point.t array ->
  set_of:int array -> rects:Cso_geom.Rect.t array -> k:int -> z:int ->
  float -> (int list * int list) option
(** [solve_core ... r] — the stage shared with RCTO1 (Section 4.1.1):
    given coreset points tagged with their (disjoint) owning set, prune dense 15r-balls, then
    run the MWU solver on the survivors. Returns [(centers, outlier
    sets)] — center indices into [points], set ids indexing [rects] —
    or [None] when the radius guess is certifiably too small.
    Requires [set_of.(i)] to be the unique rectangle containing
    [points.(i)]. *)

type report = {
  solution : Instance.solution;
  radius : float;
  coreset_points : int; (* points handed to the MWU stage *)
  forced_outliers : int; (* |H_0|: sets uncoverable by k balls of 2r *)
}

val solve : ?eps:float -> ?rounds:int -> Geo_instance.t -> report
(** Full algorithm with binary search over
    {!Cso_metric.Guess.radius_grid} at ratio [1 + eps], topped by four
    times its last value. Raises [Invalid_argument] if the instance has
    frequency > 1, or unless [eps > 0.].

    Under [gcso_disjoint.solve], a solve records the {!Cso_obs.Obs}
    spans [gcso_disjoint.cores] (phase 1's members and Gonzalez),
    [gcso_disjoint.lattice] (the grid) and one [gcso_disjoint.guess] per
    binary-search guess (holding [mwu.run] and [gcso.round] when the
    guess reaches the MWU). *)
