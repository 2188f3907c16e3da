(** Binary search over sorted radius candidates.

    Every Table 1 solver wraps its per-radius step in the same outer
    loop: search a sorted candidate array (the pairwise distances [D] of
    Section 2, the WSPD lattice of Section 3, the [L_inf] candidates of
    Section 4) for the smallest radius the step accepts. The step is a
    [probe] from a candidate index to [Some] value when it accepts and
    [None] when it rejects.

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
