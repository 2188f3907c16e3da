(** Dense two-phase primal simplex LP solver.

    Stands in for the fast LP solver of [48] in the paper's Section 2.2
    (see DESIGN.md, substitution 1): the CSO rounding analysis only needs
    an exact solution (or feasibility certificate) for small LPs, which
    simplex provides.

    Pricing is Dantzig's (the most negative reduced cost enters), with
    the ratio test's ties broken to the smallest basic variable. After
    50 consecutive degenerate pivots the entering column is Bland's
    (the smallest index with a negative reduced cost) until the next
    non-degenerate pivot; since a cycle holds only degenerate pivots and
    Bland's rule cannot cycle, every solve terminates (simplex.ml gives
    the argument).

    Problems are stated over variables [x_0 .. x_{n-1}] with individual
    bounds [lo_i <= x_i <= hi_i] and linear constraints [a . x OP b].
    [lo_i] is finite and [>= 0]; [hi_i] may be [infinity], and such a
    variable gets no bound row. Objective, coefficients and right-hand
    sides are finite. The objective is maximized. *)

type op = Le | Ge | Eq

type problem = {
  num_vars : int;
  objective : float array; (* length num_vars; maximized *)
  constraints : (float array * op * float) list;
  bounds : (float * float) array; (* length num_vars, 0. <= lo <= hi *)
}

type outcome =
  | Optimal of { value : float; solution : float array; duals : float array }
      (** [duals.(i)] is the price of [constraints]' [i]-th row in the
          final basis, read from its reduced cost; bound rows get none.
          Its sign is the feasible one for a maximization: [>= 0] for
          [Le], [<= 0] for [Ge], either for [Eq], each up to the [1e-9]
          pricing tolerance. When every bound is [[0, infinity)] (no
          bound rows, no shift) the duals certify optimality:
          [A^T duals >= objective] up to that tolerance and
          [b . duals = value], both up to rounding. *)
  | Infeasible
  | Unbounded

val solve : problem -> outcome
(** Solves the problem. Raises [Invalid_argument] on malformed input:
    wrong lengths; a nan anywhere; a non-finite objective coefficient,
    constraint coefficient or right-hand side; a negative or infinite
    lower bound; [lo > hi].

    The working tableau is one flat row-major [float array] (stride
    [ncols + 1]); see DESIGN.md section 3e. Outcomes, pivot sequences
    and all [lp.simplex.*] counters are bit-identical to the
    row-of-rows tableau it replaced, kept as
    [Cso_refcheck.Reference.simplex_solve]. *)

val solve_below : cutoff:float -> problem -> outcome option
(** [solve_below ~cutoff p] is [Some (solve p)], bit for bit and duals
    included, unless a phase-2 pivot reaches a basis whose objective
    value exceeds [cutoff]; then it stops there and returns [None]. The
    value compared is the true objective [objective . x]: the tableau's,
    with the shift by the lower bounds added back. No pivot lowers it,
    so [None] means the optimum exceeds [cutoff] too, or the problem is
    unbounded. Phase 1 is never stopped, so an infeasible problem is
    [Some Infeasible]. Raises as {!solve} does, and counts in the same
    [lp.simplex.*] counters and [simplex.solve] span. *)

val feasible_point : problem -> float array option
(** Ignores the objective; [Some x] for any feasible [x], or [None]. *)

val box : ?lo:float -> ?hi:float -> int -> (float * float) array
(** [box n] is the all-[0,1] bounds array of length [n] (defaults
    [lo = 0.], [hi = 1.]). *)
