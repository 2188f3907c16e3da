(** The differential / metamorphic check registry.

    One {!Fuzz.t} per (fast implementation, oracle-or-invariant) pair,
    grouped by substrate prefix:

    - [metric.*] — {!Cso_metric.Space} ball / pairwise / cached vs scans;
    - [geom.*] — BBD sandwich guarantee, batched queries, power-of-two
      scale invariance, range-tree reporting vs scans, the flat WSPD
      lattice and the box-complement grid vs the versions they replaced;
    - [kcenter.*] — Gonzalez 2-approximation and scale invariance,
      Charikar 3-approximation with outliers, vs exhaustive optima;
    - [lp.*] — flat simplex vs reference tableau (duals included),
      feasibility of optima, duals that certify optima over
      [[0, +inf)] bounds, MWU vs simplex feasibility agreement;
    - [setcover.*] — greedy and exact vs brute force;
    - [cso.*] / [gcso.*] — exact solver, LP tri-criteria and MWU
      tri-criteria guarantees vs the exhaustive [rho*]; the CSO-LP's
      packing dual vs the bounded (LP1) it replaced; outlier-budget
      monotonicity; k-median LP bound <= exact <= local search;
    - [relational.*] — Yannakakis count / enumerate / any / sample,
      semijoin reduction and hypertree decomposition vs the nested-loop
      join; the prepared rectangle oracle vs a filtered copy and a
      Yannakakis pass. *)

val all : Fuzz.t list
(** Every registered check, in substrate order. *)

val names : string list
