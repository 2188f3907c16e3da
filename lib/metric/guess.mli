(** Radius guesses: the geometric grid the geometric rows search, and
    binary search over any sorted candidate array.

    Every Table 1 solver wraps its per-radius step in the same outer
    loop: search a sorted candidate array (the pairwise distances [D] of
    Section 2, the {!radius_grid} that stands in for Section 3's WSPD
    lattice, the [L_inf] candidates of Section 4) for the smallest
    radius the step accepts. The step is a [probe] from a candidate
    index to [Some] value when it accepts and [None] when it rejects.

    Both searches keep an inclusive bracket [[lo, hi]] starting at
    [[0, n - 1]] and probe its midpoint [(lo + hi) / 2] until it is
    empty, so the sequence of probed indices depends only on [n] and
    the answers. The probe runs once per visited index, in that order,
    so counters, spans and logs inside it fire as the search visits
    them. *)

val lowest : int -> (int -> 'a option) -> (int * 'a) option
(** [lowest n probe] searches [[0, n)] for the smallest index whose
    probe answers [Some], and returns it with its value. After a [Some]
    at [mid] the bracket continues below [mid], after a [None] above.
    When the answers are monotone ([None] below a threshold, [Some] from
    it on) the result is the threshold; in general it is the smallest
    probed index that answered [Some]. [None] when no probe did, or
    when [n <= 0]. *)

val highest : int -> (int -> 'a option) -> (int * 'a) option
(** [highest n probe] is the mirror of {!lowest}: the largest index in
    [[0, n)] whose probe answers [Some] ([Some] below a threshold,
    [None] from it on), with its value. After a [Some] at [mid] the
    bracket continues above [mid], after a [None] below. *)

val radius_grid : ratio:float -> Points.t -> float array
(** [radius_grid ~ratio p] is [0.] followed by [lo], then each value
    times [ratio], up to and including the first value [>= hi]:
    - [lo] is half the smallest finite positive difference between two
      values of one coordinate, and at least the smallest positive
      float. Two points at a positive distance differ in some
      coordinate by at least that difference, and the computed distance
      can fall below it only by rounding, by less than the halving;
    - [hi] is the square root of the coordinate spans' squares, summed
      in the order of the {!Points} kernels, so no computed distance
      exceeds it. When that sum overflows or is nan (a span of about
      1.3e154 or more, an infinite or nan coordinate), [hi] is
      [max_float].

    Guarantee: for every pair [i, j] whose {!Points.l2_idx} distance
    [d] is positive and finite, some grid value [g] satisfies
    [d <= g && g <= ratio *. d], both read in floats. So a search that
    accepts every guess from [rho*] on returns one in
    [[rho*, ratio *. rho*]], and the leading [0.] covers [rho* = 0].

    The grid is finite and strictly increasing for every input. A
    product that rounds back to its operand (deep subnormals) steps one
    float up instead, and one that overflows is capped at [max_float].
    It holds about [log_ratio (hi / lo) + 2] values: at most about
    25,000 at [ratio = 1.06], whatever the coordinates. No two points at
    a positive distance ([n <= 1], all duplicates, [-0.] against [0.],
    or only infinite differences) gives [[|0.|]].

    Costs one sort per coordinate and no distance evaluation; adds the
    grid's length to the [metric.radius_grid.values] counter. Raises
    [Invalid_argument] unless [ratio > 1.]. *)
