(** The Yannakakis algorithm [68] and its counting / enumeration /
    sampling variants over acyclic joins.

    All functions take the instance together with a join tree of its
    schema. Join results are points in [R^d] indexed by global attribute
    id. Counting and sampling run in [O(N log N)]-style time without
    materializing [Q(I)] — the primitive behind the oracles of
    Lemma 4.1. *)

val positions : int array -> int array -> int array
(** [positions rel_attrs wanted]: where each of the [wanted] global
    attributes sits in a tuple laid out as [rel_attrs]. *)

val project : float array -> int array -> float array
(** [project tup pos]: the values at [pos], the join key that tuples
    meet on along a join-tree edge. *)

val count : Instance.t -> Join_tree.t -> int
(** [|Q(I)|]. *)

val enumerate : ?limit:int -> Instance.t -> Join_tree.t ->
  Cso_metric.Point.t array
(** Materializes up to [limit] join results (default: all). Beware:
    [|Q(I)|] can be [Theta(N^g)]. *)

val any : Instance.t -> Join_tree.t -> Cso_metric.Point.t option
(** Some join result, or [None] when the join is empty. *)

val sample : ?rng:Random.State.t -> Instance.t -> Join_tree.t -> int ->
  Cso_metric.Point.t array
(** Uniform samples from [Q(I)], with replacement. Returns [[||]] when
    the join is empty. *)

val semijoin_reduce : Instance.t -> Join_tree.t -> Instance.t
(** Full reduction: keeps exactly the tuples that participate in at
    least one join result. *)

val contains_result : Instance.t -> Cso_metric.Point.t -> bool
(** Whether the point is a join result: every projection is a tuple of
    its relation. Does not need a join tree. *)
