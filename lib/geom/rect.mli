(** Axis-aligned hyper-rectangles in [R^d].

    Bounds are closed intervals [ [lo_i, hi_i] ]; coordinates may be
    [neg_infinity] / [infinity] so rectangles can be unbounded in some
    dimensions (the paper's degenerate rectangles for relational tuples,
    Section 4.1). A rectangle with [lo_i = hi_i] in some dimension is a
    valid degenerate (flat) rectangle. *)

type t = private {
  lo : float array;
  hi : float array;
}

val make : lo:float array -> hi:float array -> t
(** Raises [Invalid_argument] if dimensions differ, some bound is nan or
    some [lo_i > hi_i]. *)

val of_intervals : (float * float) list -> t

val dim : t -> int

val unbounded : int -> t
(** The whole of [R^d]. *)

val contains : t -> Cso_metric.Point.t -> bool
(** Closed containment test. *)

val contains_rect : t -> t -> bool
(** [contains_rect outer inner]. *)

val intersects : t -> t -> bool
(** Closed-interval overlap test. *)

val inter : t -> t -> t option
(** Intersection, [None] when empty. *)

val bounding_box : Cso_metric.Point.t array -> t
(** Smallest rectangle containing all points; raises on empty input. *)

val bounding_box_idx :
  Cso_metric.Points.t -> int array -> lo:int -> hi:int -> t
(** [bounding_box_idx coords idx ~lo ~hi] is the bounding box of the
    packed points [idx.(lo) .. idx.(hi - 1)] — bit-identical to boxing
    those points and calling {!bounding_box}, without the boxing. Raises
    on an empty index range. *)

val bounding_box_into :
  Cso_metric.Points.t -> int array -> lo:int -> hi:int -> float array ->
  int -> unit
(** [bounding_box_into coords idx ~lo ~hi dst off] writes the same box
    as {!bounding_box_idx}, packed: its [d] low coordinates at
    [dst.(off) .. dst.(off + d - 1)], then its [d] high ones. Raises on
    an empty index range or a too-short [dst]. *)

val sort_by_widest_dim :
  Cso_metric.Points.t -> int array -> lo:int -> hi:int -> keys:float array ->
  ids:int array -> unit
(** The median split of the BBD and fair-split trees: sorts
    [idx.(lo) .. idx.(hi - 1)] by the coordinate [j] along which their
    bounding box is widest (the first such [j]), leaving exactly the
    permutation of
    [Array.sort (fun a b -> Float.compare (coord a j) (coord b j))] on
    that range. [keys] and [ids] are scratch of length at least
    [hi - lo]. *)

val cube : center:Cso_metric.Point.t -> side:float -> t
(** Axis-aligned hypercube: the [L_inf] ball of radius [side /. 2.]. *)

val min_dist_to_point : t -> Cso_metric.Point.t -> float
(** Euclidean distance from the point to the rectangle (0 if inside). *)

val max_dist_to_point : t -> Cso_metric.Point.t -> float
(** Maximum Euclidean distance from the point to any point of the
    rectangle; [infinity] when the rectangle is unbounded. *)

val min_dist_packed :
  float array -> lo:int -> hi:int -> d:int -> Cso_metric.Point.t -> float
(** [min_dist_packed box ~lo ~hi ~d p] is {!min_dist_to_point} for the
    [d]-dimensional rectangle whose low corner is
    [box.(lo) .. box.(lo + d - 1)] and high corner
    [box.(hi) .. box.(hi + d - 1)] — bit-identical, the same formula.
    The caller guarantees both ranges lie inside [box]; [p] shorter
    than [d] raises. *)

val max_dist_packed :
  float array -> lo:int -> hi:int -> d:int -> Cso_metric.Point.t -> float
(** Packed {!max_dist_to_point}, with {!min_dist_packed}'s layout. *)

val points_inside : t -> Cso_metric.Point.t array -> int list
(** Indices of the points contained in the rectangle. *)

val is_bounded : t -> bool

val pp : Format.formatter -> t -> unit
