(** Well-Separated Pair Decomposition (Section 3.1, [15, 46]).

    Built over a fair-split tree, stored as flat arrays indexed by node
    id (representative point, packed ball center, radius, children)
    and shared by the entry points below. Its role in the paper
    is to produce a
    small set of {e candidate distances} [Gamma] such that every pairwise
    distance of [P] is approximated within a [(1 +- eps)] factor by some
    candidate; the binary searches of Sections 3.2/3.3 then run over
    [Gamma] instead of all n^2 distances. *)

type pair_info = {
  pi_a : int;  (** representative point index of side A *)
  pi_b : int;  (** representative point index of side B *)
  pi_ra : float;  (** enclosing-ball radius of side A *)
  pi_rb : float;  (** enclosing-ball radius of side B *)
  pi_center_dist : float;  (** distance between the two ball centers *)
  pi_pts_a : int list;  (** all point indices under side A *)
  pi_pts_b : int list;  (** all point indices under side B *)
}
(** One well-separated pair with enough geometry to re-check the
    separation invariant externally:
    [pi_center_dist - pi_ra - pi_rb >= s * max pi_ra pi_rb] with
    [s = max (4/eps) 1]. *)

val pairs_info : ?eps:float -> Cso_metric.Point.t array -> pair_info list
(** Each well-separated pair of the decomposition with its representatives,
    node radii, center distance and full point sets — the data needed to
    verify well-separatedness and exact pair coverage in tests. *)

val candidate_distances_packed : ?eps:float -> Cso_metric.Points.t ->
  float array
(** Sorted, deduplicated candidate distances (0. included): the array
    [Gamma] of Algorithm 1, computed over a packed store — the
    production entry point. For every pairwise distance [delta] of the
    input there is a candidate in [[(1-eps) delta, (1+eps) delta]].

    The pair distances go straight into one float buffer, which
    {!Cso_metric.Float_sort.sort_uniq} sorts and deduplicates in place:
    no pair list and no boxed float. The result is bit-identical to the
    list-based reference [Cso_refcheck.Reference.wspd_candidate_distances],
    and the call publishes the same [geom.wspd.pairs],
    [geom.wspd.find_calls] and [metric.dist_evals] totals (once per
    call) and the same [geom.wspd.pair_sep_ratio] events. *)

val candidate_distances : ?eps:float -> Cso_metric.Point.t array ->
  float array
(** Boxed test/reference wrapper: packs the array and delegates to
    {!candidate_distances_packed} — bit-identical output. *)
