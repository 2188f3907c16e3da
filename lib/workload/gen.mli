(** Low-level random generation helpers shared by the workload
    generators. All functions are deterministic given the
    [Random.State.t]. *)

val uniform : Random.State.t -> lo:float -> hi:float -> float

val uniform_point : Random.State.t -> d:int -> lo:float -> hi:float ->
  Cso_metric.Point.t

val around : Random.State.t -> Cso_metric.Point.t -> radius:float ->
  Cso_metric.Point.t
(** Uniform in the L_inf ball of the given radius around the anchor (so
    within Euclidean distance [radius *. sqrt d]). *)

val separated_anchors : Random.State.t -> k:int -> d:int ->
  separation:float -> Cso_metric.Point.t array
(** [k] anchor points with pairwise Euclidean distance at least
    [separation], on a jittered axis-aligned lattice. *)
