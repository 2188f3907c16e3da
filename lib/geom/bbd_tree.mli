(** Balanced box-decomposition tree for approximate ball queries.

    This implements the interface of the BBD tree of Arya–Mount used
    throughout Section 3 of the paper, on top of a kd-tree box
    decomposition (see DESIGN.md, substitution 2). The contract that all
    algorithms rely on is the {e sandwich guarantee} of [ball_query]:

    for query ball [B(c, r)] and parameter [eps], the returned canonical
    nodes are pairwise disjoint and their point sets [U] satisfy
    [B(c,r) cap P subseteq U subseteq B(c,(1+eps)r) cap P].

    The tree is stored struct-of-arrays, indexed by node id: all node
    boxes in one packed float array, and parent, child, point, count
    and activity fields in int and bool arrays, so a ball query, a
    root-path sum or a rounding step reads flat arrays and follows no
    per-node record. Each node has one float weight accumulator, held
    the same way: it carries the MWU Oracle's node weights (written by
    {!scatter_weights}, read by {!path_weights}). Nodes also carry an
    activity flag with active-point counts and representatives (used by
    the rounding procedure of Appendix C and the RCRO algorithm of
    Appendix E). *)

type t

val build_packed : Cso_metric.Points.t -> t
(** Builds the tree over a packed store; single-point leaves. Accepts
    the empty store. *)

val size : t -> int
(** Number of points. *)

val ball_query : t -> center:Cso_metric.Point.t -> radius:float ->
  eps:float -> int list
(** Canonical node ids with the sandwich guarantee above. *)

val balls_all : t -> radius:float -> eps:float -> int list array
(** [balls_all t ~radius ~eps] is
    [Array.init (size t) (fun i -> ball_query t ~center:pts.(i) ~radius ~eps)]
    computed in one batched pass: the points are swept in parallel over
    the default {!Cso_parallel.Pool} with per-domain reusable traversal
    scratch, so no boxed center or stack frame is allocated per query.
    Result lists, their order, and every [geom.bbd.*] counter and
    histogram event are identical to the per-point loop (and across pool
    sizes). *)

val ball_query_idx : t -> center:int -> radius:float -> eps:float -> int list
(** [ball_query] centered at the tree's own point [center] (a point
    index), staged from the packed store — no boxed point on the path.
    Same result and counter events as the boxed-center query at those
    coordinates. *)

val ball_query_active_idx :
  t -> center:int -> radius:float -> eps:float -> int list
(** Like {!ball_query_idx} but never descends into deactivated nodes;
    canonical nodes cover only active points. *)

val points_of_node : t -> int -> int list
(** All point indices stored under the node. *)

val active_points_of_node : t -> int -> int list

val node_count : t -> int -> int
(** Number of points under the node. *)

val leaf_of_point : t -> int -> int
(** The leaf node holding point [i]. *)

val n_nodes : t -> int
(** Total node count; node ids are [0 .. n_nodes - 1] in pre-order
    (every parent id is smaller than its children's). *)

val parent : t -> int -> int
(** Parent node id, [-1] at the root. *)

val fold_path_to_root : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a
(** [fold_path_to_root t node ~init ~f] folds [f] over the node ids on the
    path from [node] (inclusive) to the root (inclusive). *)

(** {2 Node weights} *)

val reset_weights : t -> unit
(** Zeroes the weight accumulator on every node. *)

val scatter_weights : t -> Csr.t -> float array -> unit
(** [scatter_weights t rows w] adds [w.(i)] to the accumulator of every
    node listed in row [i] of [rows], rows in order and each row in
    element order, without boxing a float per addition. *)

val path_weights : t -> float array -> unit
(** [path_weights t out] sets [out.(l)], for every point [l], to the sum
    of the accumulator over the path from [l]'s leaf to the root, added
    leaf first, in the order of {!fold_path_to_root}. One pass over the
    default {!Cso_parallel.Pool}; bit-identical for every pool size. *)

(** {2 Activity (deletion) support} *)

val reset_active : t -> unit
(** Marks every node active again. *)

val deactivate : t -> int -> unit
(** Deactivates a node (and logically its whole subtree), updating
    active counts and representatives on the path to the root. *)

val root_active_count : t -> int
(** Number of points not covered by any deactivated node. *)

val root_repr : t -> int option
(** Some representative active point, or [None] when all are inactive. *)

val point_is_active : t -> int -> bool
(** True iff no node on the path from point [i]'s leaf to the root has
    been deactivated. *)

val active_count_in_ball_idx : t -> center:int -> radius:float ->
  eps:float -> int
(** Sum of active counts over the canonical nodes of the active query
    centered at point [center]: approximately
    [|B(c,r) cap active P|]. *)

val budgets : Cso_obs.Obs.Budget.t list
(** Declared complexity budget for the per-query node-visit histogram
    ([geom.bbd.nodes_per_query]): fitted log-log exponent vs n must stay
    near 0 (polylog per query), far from the O(n) regression slope.
    Checked by [bench/fig_budgets] and [csokit budgets]. *)
