(** CSO problem instances and solutions (Definition 1.1).

    An instance is a finite metric space, a family [sets] of subsets of
    its elements (every element must belong to at least one set), and the
    parameters [k] (centers) and [z] (outlier sets). A solution is a set
    of centers [C] and a family of outlier-set indices [H]; it is valid
    when no center lies inside a chosen outlier set. Its cost is
    [rho(C, P \ U_{h in H} h)]. *)

type t = private {
  space : Cso_metric.Space.t;
  sets : int list array; (* sets.(j): elements of the j-th outlier set *)
  k : int;
  z : int;
  membership : int list array; (* membership.(i) = L_i: sets containing i *)
}

type solution = {
  centers : int list;
  outliers : int list; (* indices into [sets] *)
}

val make : Cso_metric.Space.t -> sets:int list list -> k:int -> z:int -> t
(** Raises [Invalid_argument] when an element index is out of range, an
    element belongs to no set, or [k <= 0] or [z < 0]. *)

val with_cached_space : t -> t
(** Same instance with the full distance matrix precomputed
    ({!Cso_metric.Space.cached}): worthwhile before algorithms that probe
    most pairs repeatedly (the LP binary searches). O(n^2) memory. *)

val frequency : t -> int
(** [f]: maximum number of sets an element belongs to. *)

val n_elements : t -> int
val n_sets : t -> int

val covered_mask : t -> int list -> bool array
(** [covered_mask t outliers].(i) is true iff element [i] belongs to some
    listed set. *)

val surviving : t -> int list -> int list
(** Elements not covered by the listed outlier sets. *)

val is_valid : t -> solution -> bool
(** Centers within range, distinct sets, no center covered by a chosen
    outlier set. Does {e not} check the cardinality bounds — tri-criteria
    solutions exceed [k] and [z] by design. *)

val cost : t -> solution -> float
(** [rho(C, P \ U H)]; [0.] when everything is outliered, [infinity] when
    survivors exist but there are no centers. *)
