(** Database instances: one set of tuples per relation.

    Tuples of relation [i] are float arrays indexed like
    [Schema.rel_attrs schema i]. Relations are sets: [make] deduplicates.
    Instances are immutable; the mutation-shaped operations return new
    instances sharing tuple arrays where possible. *)

type t = private {
  schema : Schema.t;
  tuples : float array array array; (* tuples.(i).(j) = j-th tuple of R_i *)
}

val make : Schema.t -> float array list list -> t
(** [make schema per_relation_tuples]; validates arities, dedupes.
    Raises [Invalid_argument] on a wrong arity or a nan value. *)

val of_arrays : Schema.t -> float array array array -> t
(** As {!make}. *)

val size : t -> int
(** Total number of tuples [N = |I|]. *)

val n_tuples : t -> int -> int

val tuple : t -> rel:int -> idx:int -> float array

val project_result : t -> rel:int -> Cso_metric.Point.t -> float array
(** [project_result t ~rel p] is [pi_{A_rel}(p)]: the projection of a
    [d]-dimensional join-result point onto relation [rel]'s attributes. *)

val mem_tuple : t -> rel:int -> float array -> bool

val filter : t -> (int -> float array -> bool) -> t
(** Keeps the tuples satisfying the predicate (given relation id and
    tuple). *)

val filter_rect : t -> Cso_geom.Rect.t -> t
(** Keeps in every relation the tuples consistent with the (d-dimensional)
    rectangle — i.e. whose values lie in the rectangle's interval for each
    of the relation's attributes. The join of the result is exactly
    [Q(I) cap rect]. *)

val restrict_to_tuple : t -> rel:int -> float array -> t
(** Replaces relation [rel] by the single given tuple: the instance whose
    join is [Q_t(I) = rect_t cap Q(I)] (Section 4.1). *)

val remove : t -> (int * float array) list -> t
(** Removes the listed [(relation, tuple)] pairs (compared structurally). *)

val partition : t -> (int -> float array -> bool) -> t * t
(** [(i1, i2)]: tuples satisfying the predicate go to [i1], the rest to
    [i2]. The predicate runs once per tuple, relation by relation in
    tuple order, so a random predicate still sends each tuple to exactly
    one half. Both keep the full schema (relations may become empty). *)

val all_tuples : t -> (int * float array) list
(** Every tuple tagged with its relation id. *)

val tuple_rect : t -> rel:int -> float array -> Cso_geom.Rect.t
(** The degenerate hyper-rectangle [rect_t] of Section 4.1: point
    intervals on the relation's attributes, unbounded elsewhere. *)
