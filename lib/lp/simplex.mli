(** Dense two-phase primal simplex LP solver.

    Stands in for the fast LP solver of [48] in the paper's Section 2.2
    (see DESIGN.md, substitution 1): the CSO rounding analysis only needs
    an exact solution (or feasibility certificate) for small LPs, which
    simplex provides. Bland's rule guarantees termination.

    Problems are stated over variables [x_0 .. x_{n-1}] with individual
    bounds [lo_i <= x_i <= hi_i] (both finite, [lo_i >= 0]) and linear
    constraints [a . x OP b]. The objective is maximized. *)

type op = Le | Ge | Eq

type problem = {
  num_vars : int;
  objective : float array; (* length num_vars; maximized *)
  constraints : (float array * op * float) list;
  bounds : (float * float) array; (* length num_vars, 0. <= lo <= hi *)
}

type outcome =
  | Optimal of { value : float; solution : float array }
  | Infeasible
  | Unbounded

val solve : problem -> outcome
(** Solves the problem. Raises [Invalid_argument] on malformed input
    (wrong lengths, negative lower bounds, [lo > hi]).

    The working tableau is one flat row-major [float array] (stride
    [ncols + 1]); see DESIGN.md section 3e. Outcomes, pivot sequences
    and all [lp.simplex.*] counters are bit-identical to the
    row-of-rows tableau it replaced, kept as
    [Cso_refcheck.Reference.simplex_solve]. *)

val feasible_point : problem -> float array option
(** Ignores the objective; [Some x] for any feasible [x], or [None]. *)

val box : ?lo:float -> ?hi:float -> int -> (float * float) array
(** [box n] is the all-[0,1] bounds array of length [n] (defaults
    [lo = 0.], [hi = 1.]). *)
