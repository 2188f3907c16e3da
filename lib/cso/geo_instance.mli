(** GCSO problem instances (Definition 1.2): points in [R^d] with
    hyper-rectangle outlier candidates.

    Solutions reuse {!Instance.solution} ([outliers] index into [rects]).
    [to_cso] converts to a general CSO instance (each rectangle becomes
    the subset of points it contains) — used for validation, cost
    evaluation and as input to the general algorithms. *)

type t = private {
  points : Cso_metric.Point.t array;
      (** boxed I/O/validation view; solvers read [coords] *)
  coords : Cso_metric.Points.t;
      (** the points, packed once at construction — the representation
          every production path (trees, WSPD, greedy) works over *)
  rects : Cso_geom.Rect.t array;
  k : int;
  z : int;
  membership : int list array; (* rectangles containing each point *)
}

val make : points:Cso_metric.Point.t array -> rects:Cso_geom.Rect.t array ->
  k:int -> z:int -> t
(** Raises [Invalid_argument] when some point lies in no rectangle, or on
    bad [k] / [z]. *)

val dims : t -> int
val frequency : t -> int

val rect_members : t -> Cso_geom.Csr.t
(** The points inside each rectangle: row [j] lists, ascending, the
    points whose [membership] holds [j] — the CSR transpose of
    [membership], built in O(f n + m) for frequency [f]. [make] decides
    membership with {!Cso_geom.Rect.contains}, and every solver reads a
    rectangle's points from here or from [membership], so this module
    alone decides which points a rectangle holds. *)

val to_cso : t -> Instance.t

val cost : t -> Instance.solution -> float
val is_valid : t -> Instance.solution -> bool
