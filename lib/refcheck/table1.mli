(** Table 1 of the paper: each row's tri-criteria bound and the one
    verdict that both the bench ([bench/main.exe table1]) and the
    [*_tricriteria_vs_opt] checks of {!Checks} read.

    A solution is a [(mu1, mu2, mu3)]-approximation when it opens at
    most [mu1 k] centers, discards at most [mu2 z] outliers (sets,
    rectangles, tuples or join results) and costs at most [mu3] times
    the optimum. Where the paper writes [O(1)] and the solver's [.mli]
    derives a constant, the row states that constant; where no constant
    is derived, the row checks no cost. *)

type params = {
  k : int;
  z : int;
  f : int; (** the most outlier sets one element lies in *)
  g : int; (** the relations in the join *)
  eps : float; (** the accuracy the solver ran at *)
}

type bound = {
  mu1 : float;
  mu2 : float;
  mu3 : float option; (** [None]: [O(1)], with no constant derived *)
}

type row = {
  id : string; (** ["T1.R1"] .. ["T1.R8"] *)
  problem : string;
  theorem : string;
  guarantee : string; (** the bound as printed, e.g. ["(2, 2f, 2)"] *)
  bound : (params -> bound) option;
      (** [None] for T1.R1, a lower bound with no [(mu1, mu2, mu3)] *)
}

val hardness : row
val cso_general : row
val cso_disjoint : row
val gcso_general : row
val gcso_disjoint : row
val rcto1 : row
val rcto : row
val rcro : row

val rows : row list
(** T1.R1 .. T1.R8, in order. *)

type measurement = {
  valid : bool; (** no center lies in a chosen outlier *)
  centers : int;
  outliers : int;
  cost : float;
  opt : float option; (** the exact optimum, when known *)
}

val of_cso : ?opt:float -> Cso_core.Instance.t -> Cso_core.Instance.solution ->
  params * measurement
(** A CSO solution's measurement; [f] is the instance's frequency. *)

val of_gcso : eps:float -> ?opt:float -> Cso_core.Geo_instance.t ->
  Cso_core.Instance.solution -> params * measurement
(** The same for a GCSO solution computed at [eps]. *)

type criterion = Valid | Outliers | Centers | Cost

val verdict : row -> params -> measurement -> (unit, criterion * string) result
(** [Ok ()] when the solution is valid and, for a row with a bound, has
    at most [mu2 z] outliers, at most [mu1 k] centers and, when [opt]
    is given and [mu3] is known, cost at most [mu3 opt]. Otherwise the
    first criterion violated, in that order, with a message. The
    counts get a [1e-9] slack, since [mu1 k] can be an integer computed
    inexactly ([(2+eps)k]); the cost gets none. *)
