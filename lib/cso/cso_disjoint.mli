(** Coreset-based (2, 2, O(1))-approximation for disjoint CSO
    (Section 2.3, [f = 1]).

    Phase 1's radius-independent half runs once per solve: Gonzalez
    inside every outlier set gives its centers and covering radius. Then,
    for each radius guess [r]:
    + sets whose covering radius exceeds [2r] are forced outliers
      ([H_0]): [k] balls of radius [r] cannot cover them;
    + the surviving sets keep only their (2r-separated) Gonzalez
      centers;
    + repeatedly remove [15r]-balls around elements whose [10r]-ball
      meets more than [z-bar] distinct sets (each such ball must contain a
      full optimum cluster; [k] decreases accordingly);
    + solve (LP2) — the LP of Section 2.2 with radii [10r] / [20r] — on
      the remaining coreset and stitch the pieces back together.

    Guarantee (Theorem 2.6): at most [2k] centers, [2z] outlier sets,
    cost at most [30 rho*_{k,z}]. [cso.disjoint_tricriteria_vs_opt]
    checks all three against the exhaustive optimum. *)

type report = {
  solution : Instance.solution;
  radius : float; (* smallest radius guess that succeeded *)
  coreset_elements : int; (* |P'| at the final radius *)
  coreset_sets : int; (* |H'| at the final radius *)
}

type attempt =
  | Solved of Instance.solution
  | Skip (* the guess is certifiably below the optimum: retry larger *)

val solve_at : Instance.t -> r:float -> attempt
(** One radius guess, phase 1 included. Raises [Invalid_argument] if the
    instance has frequency > 1 (sets must be disjoint). *)

val solve : Instance.t -> report
(** Full binary search, with phase 1's Gonzalez run once. Following the
    remark after Theorem 2.6, when [km < n] the search lattice is built
    from phase 1 instead of all pairwise distances: the distances among
    the per-set Gonzalez centers and every set's covering radius, each
    also doubled (O(k^2 m^2) values). One of them lies in
    [[rho*, 4 rho*]] (the argument is in cso_disjoint.ml), so the cost
    bound grows at most four-fold in exchange for the cheaper sort. The
    largest guess always solves. Raises [Invalid_argument] as
    {!solve_at} does.

    Under [cso_disjoint.solve], a solve records the {!Cso_obs.Obs}
    spans [cso_disjoint.cores] (phase 1's Gonzalez) and one
    [cso_disjoint.guess] per binary-search guess (holding the LP row's
    spans when the guess reaches (LP2)). *)
