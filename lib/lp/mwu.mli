(** Multiplicative Weight Update feasibility framework (Arora, Hazan,
    Kale [9]; paper Section 3.1, Theorem 3.1).

    Solves feasibility problems [exists psi in P : A psi >= b] given a
    [xi]-bounded oracle for the single aggregated constraint
    [sigma^T A psi >= sigma^T b] over a probability vector [sigma].

    The caller supplies:
    - [oracle sigma]: [Some sol] maximizing/satisfying the aggregated
      constraint over [P], or [None] when even the aggregate is
      infeasible (which certifies infeasibility of the whole system);
    - [violation sol]: the per-constraint slack [A_i sol - b_i], each of
      which must lie in [[-1, width]] (the [xi]-ORACLE condition).

    After [rounds] feasible iterations every constraint of the averaged
    solution is satisfied up to an additive [eps]. *)

type 'a outcome =
  | Feasible of 'a list
      (** The per-round oracle solutions, in round order; the caller
          averages them (the paper's [psi_hat / T]). *)
  | Infeasible

val default_rounds : m:int -> width:float -> eps:float -> int
(** [O(width * log m / eps^2)] with the constant used in our
    implementation. *)

val min_weight_factor : float
(** Weight floor as a fraction of uniform: every constraint weight is
    clamped to at least [min_weight_factor /. m] before renormalizing,
    each round and on warm-start. Callers seeding fresh constraints at
    the floor (e.g. incremental re-solves mapping surviving constraint
    ids) should use this same factor so the warm vector round-trips the
    clamp bit-identically. *)

val run :
  m:int ->
  width:float ->
  eps:float ->
  ?rounds:int ->
  ?warm_weights:float array ->
  ?on_round:(round:int -> max_violation:float -> unit) ->
  ?on_weights:(float array -> unit) ->
  oracle:(float array -> 'a option) ->
  violation:('a -> float array) ->
  unit ->
  'a outcome
(** [m] is the number of constraints; [sigma] starts uniform [1/m] —
    or, when [warm_weights] (length [m], finite, [>= 0], typically the
    last [on_weights] snapshot of a previous run) is given, at those
    weights floored at the positive minimum and renormalized, so a
    perturbed re-solve resumes near the prior run's hard-constraint
    concentration instead of from scratch. [sigma] is renormalized
    every round after the update
    [sigma_i <- sigma_i * (1 - eps/4 * delta_i)], [delta_i = violation_i
    / width]. [on_round] reports the most-violated constraint of the
    round's oracle solution (used by the convergence bench).
    [on_weights] receives a copy of the renormalized weight vector after
    every round (a test/debug observer).

    [m = 0] (a system with no constraints) is trivially feasible: the
    oracle is called once on an empty weight vector and its solution is
    returned as [Feasible [sol]] ([None] still certifies infeasibility).
    [on_round], if any, observes [max_violation = 0.].

    Robustness guarantees: raises [Invalid_argument] unless [m >= 0],
    [eps] lies in [(0, 1]] and [rounds], when given, is at least [1] (a
    run of no rounds has no solution to average); [delta_i] is clamped to [[-1, 1]] so a
    caller-underestimated [width] degrades convergence speed instead of
    voiding the guarantee; weights are floored at a tiny positive value
    so no constraint can be silently zeroed out of later rounds.

    Per-constraint weight updates run on the default
    [Cso_parallel.Pool]; results are bit-identical for every pool
    size. *)

val budgets : Cso_obs.Obs.Budget.t list
(** Declared complexity budget for [lp.mwu.rounds]: at a fixed round
    budget the executed-round count is independent of the instance size,
    so its counter-vs-n series must fit a flat (exponent ~0) line.
    Checked by [bench/fig_budgets] and [csokit budgets]. *)
