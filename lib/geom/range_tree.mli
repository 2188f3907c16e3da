(** Multi-dimensional range tree with canonical nodes (Section 3.1).

    Built over a point set [P] in [R^d]. A query rectangle is decomposed
    into [O(log^d n)] pairwise-disjoint {e canonical nodes} of the
    last-level (dimension [d-1]) subtrees whose point sets exactly
    partition [rect cap P]. Canonical nodes are addressed by stable
    integer ids and carry the mutable state the MWU implementation of the
    paper needs:

    - an {e aggregated weight} recomputed from per-point weights (the
      node weight [u.s] of the Oracle). GCSO's oracle recomputes only the
      subtrees of the rectangles' canonical nodes
      ([set_subtree_weights]) unless those subtrees hold more nodes than
      the tree, as under nested rectangles; then it, like the
      per-constraint reference oracle, calls the whole-tree
      [set_point_weights];
    - an integer {e mark} (the [u.list] occupancy of the Round procedure).

    [fold_point_paths] visits, for a point [p], every node on the paths
    from each last-level leaf storing [p] to the root of its last-level
    subtree — the node set [U_i] of Appendix C. *)

type t

val build_packed : Cso_metric.Points.t -> t
(** Builds the tree over a packed store. Accepts the empty store and
    any dimension [>= 1]. *)

val n_nodes : t -> int
(** Number of canonical (last-level) nodes: node ids are
    [0 .. n_nodes t - 1], and [set_point_weights] recomputes them all. *)

val query_nodes : t -> Rect.t -> int list
(** Canonical node ids whose point sets partition [rect cap P] exactly
    (closed-interval containment). Raises [Invalid_argument] when the
    rectangle's dimension differs from the tree's — except on an empty
    tree, which has no dimension of its own and answers every query
    with the empty list. *)

val report : t -> Rect.t -> int list
(** Point indices inside the rectangle. *)

val count : t -> Rect.t -> int

val set_point_weights : t -> float array -> unit
(** [set_point_weights t w] assigns weight [w.(i)] to point [i] and
    recomputes every node's aggregated weight. [w] must have length
    [size t]. *)

val set_subtree_weights : t -> float array -> int -> unit
(** [set_subtree_weights t w gid] recomputes the aggregated weights of
    node [gid]'s subtree only: afterwards [node_weight t v] reads, for
    [gid] and every node under it, exactly what [set_point_weights t w]
    would give it, bit for bit (leaf = the weight of its point,
    internal = left +. right). Costs O(points under [gid]) rather than
    O(every node); other nodes keep their weights. *)

val node_weight : t -> int -> float
(** Aggregated weight of a canonical node (sum of its points' weights),
    as last set by [set_point_weights] or [set_subtree_weights]. *)

val node_count : t -> int -> int

val node_points : t -> int -> int list

val add_mark : t -> int -> unit
val reset_marks : t -> unit

val fold_point_paths : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Folds over the node ids of [U_i] (paths from the point's last-level
    leaves to their subtree roots). A node id can appear at most once. *)

val marked_on_paths : t -> int -> bool
(** [marked_on_paths t i] is true iff some node of [U_i] has a non-zero
    mark — i.e. point [i] lies in some rectangle previously recorded with
    [add_mark] on its canonical nodes. *)

val budgets : Cso_obs.Obs.Budget.t list
(** Declared complexity budget for the per-query canonical-set size
    ([geom.rtree.canonical_per_query]): O(log^d n) canonical nodes per
    query means a fitted log-log exponent near 0. Checked by
    [bench/fig_budgets] and [csokit budgets]. *)
