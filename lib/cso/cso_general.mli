(** LP-based (2, 2f, 2)-approximation for general CSO (Section 2.2).

    For a radius guess [r] the algorithm decides (LP1) and takes one of
    its feasible points, through (LP1)'s packing dual (see
    {!lp_point}); when feasible it keeps the outlier sets with
    fractional value at least [1/(2f)] and greedily picks centers among
    the surviving elements, clearing a [2r]-ball around each pick. A
    binary search over the sorted pairwise distances finds the smallest
    feasible guess.

    Guarantees (Theorem 2.4): at most [2k] centers, at most [2fz] outlier
    sets, cost at most [2 rho*_{k,z}]. *)

type report = {
  solution : Instance.solution;
  radius : float;
      (** The smallest feasible LP radius guess. Since (LP1) is feasible
          at every [r >= rho*] (Lemma 2.3 i) and the guesses exhaust the
          pairwise distances, [radius] is a {e certified lower bound} on
          the optimum — so [cost /. radius <= 2] is a certified
          per-instance approximation ratio, with no ground truth
          needed. *)
  lp_solves : int; (* number of LPs solved during the binary search *)
}

val lp_point : ?cover_mult:float -> Instance.t -> r:float ->
  float array option
(** The LP step of one guess: a feasible point of (LP1) with balls
    [B(p_i, cover_mult * r)] (default [1.]), or [None] when (LP1) is
    infeasible. The array is [x_0 .. x_{n-1}] then [y_0 .. y_{m-1}],
    each in [[0, 1]].

    (LP1) itself is not solved. Its [x, y <= 1] bounds never change
    whether it is feasible, and without them it is feasible iff the
    least [sum x] that covers every element within the outlier budget
    is at most [k]. That least sum is the optimum of the covering LP's
    packing dual (one variable per element and one for the budget row,
    one [<= 1] row per [x_l] and one [<= 0] row per [y_j]), which
    {!Cso_lp.Simplex} solves in one phase from its all-slack basis. The
    guess is accepted iff that optimum is at most [k + 1e-7], the
    phase-1 tolerance of the two-phase solve it replaces; a rejected
    guess's solve stops at the first basis whose value passes that
    cutoff ({!Cso_lp.Simplex.solve_below}). [x, y] are the optimum's
    dual prices, clipped into [[0, 1]]. DESIGN.md
    section 2 (substitution 1) gives the argument;
    [cso.lp_dual_vs_primal] checks the verdict against the bounded
    (LP1) kept in [lib/refcheck]. *)

val solve_at : ?cover_mult:float -> ?removal_mult:float -> Instance.t ->
  r:float -> Instance.solution option
(** One guess: {!lp_point}, then the rounding with removal radius
    [removal_mult * r] (default [2.]). [None] when (LP1) is
    infeasible. The generalized radii are what Section 2.3 calls (LP2):
    [cover_mult = 10.], [removal_mult = 20.]. The two steps run in the
    spans [cso.lp_build] (building the dual), [simplex.solve] and
    [cso.lp_round]. *)

val solve : Instance.t -> report
(** Full binary search; always succeeds ([k >= 1] makes the largest
    distance feasible). *)
