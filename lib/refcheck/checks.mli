(** The differential / metamorphic check registry.

    One {!Fuzz.t} per (fast implementation, oracle-or-invariant) pair,
    grouped by substrate prefix:

    - [metric.*] — {!Cso_metric.Space} ball / pairwise / cached vs scans,
      [Float_sort.sort_uniq] vs the heap sort plus a dedupe, and the
      radius grid's bracket of every pairwise distance;
    - [geom.*] — BBD sandwich guarantee, batched queries, power-of-two
      scale invariance, the flat WSPD lattice and the box-complement grid
      vs the versions they replaced;
    - [kcenter.*] — Gonzalez 2-approximation and scale invariance,
      Charikar 3-approximation with outliers, vs exhaustive optima;
    - [lp.*] — flat simplex vs reference tableau (duals included),
      feasibility of optima, duals that certify optima over
      [[0, +inf)] bounds, a solve with an objective cutoff vs the full
      solve, MWU vs simplex feasibility agreement;
    - [setcover.*] — greedy and exact vs brute force;
    - [cso.*] / [gcso.*] — exact solver, LP tri-criteria, MWU
      tri-criteria and both coreset rows' tri-criteria guarantees vs the
      exhaustive [rho*], each through its row's {!Table1.verdict}; the
      CSO-LP's packing dual vs the bounded (LP1) it replaced; each
      rectangle's members vs a containment scan;
      outlier-budget monotonicity; k-median LP bound <= exact <= local
      search;
    - [relational.*] — Yannakakis count / enumerate / any / sample,
      semijoin reduction and hypertree decomposition vs the nested-loop
      join; the prepared rectangle oracle vs a filtered copy and a
      Yannakakis pass; the pruned complement walk vs the unpruned one;
      the flat L_inf lattice vs the list-based one; the witness ascent
      of [farthest_linf] vs the bisection it replaced and, where the
      search is exact, vs brute force; a partition that sends each
      tuple to exactly one half. *)

val all : Fuzz.t list
(** Every registered check, in substrate order. *)

val names : string list
