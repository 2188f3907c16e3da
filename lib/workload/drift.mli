(** Drifting insert/delete workloads for the dynamic structures.

    A workload is a precomputed operation sequence over points whose
    cluster centers random-walk as the stream progresses, with FIFO
    churn: a [Delete] always evicts the oldest live point. Ids are the
    dense insertion order (the i-th [Insert] creates id [i]), so the
    sequence replays verbatim against any structure that assigns ids
    that way — {!Cso_geom.Dynamic.Ball} and
    {!Cso_core.Gcso_general.Incremental} — and every [Delete id] targets
    a live id by construction.

    Cluster drift makes the streaming k-center sketch's covering bound
    grow over time, so replaying against
    {!Cso_core.Gcso_general.Incremental} with interleaved queries
    exercises both the cached and the re-solve path. *)

type op = Insert of Cso_metric.Point.t | Delete of int

type t = {
  ops : op array;
  rects : Cso_geom.Rect.t array;
      (** A padded rectangle around every cluster point, then one junk
          window per outlier group — every inserted point lies in some
          rectangle, as {!Cso_core.Gcso_general.Incremental.insert}
          requires. *)
  k : int;
  z : int;
  dim : int;
  final_live : int;  (** Live population after the whole sequence. *)
}

val drifting : ?d:int -> ?spread:float -> ?churn:float ->
  ?drift_step:float -> ?junk_rate:float -> Random.State.t ->
  n_ops:int -> k:int -> z:int -> t
(** [n_ops] operations: each is a FIFO delete with probability [churn]
    (default [0.3]; skipped while nothing is live), otherwise an insert —
    junk into one of the [z] far-away windows with probability
    [junk_rate] (default [0.05], only when [z > 0]), else a point within
    L_inf [spread] (default [1.]) of one of [k] anchors after the anchor
    takes a [drift_step] (default [0.05]) random-walk step. *)

val churn_heavy : ?d:int -> ?spread:float -> ?build_frac:float ->
  ?delete_bias:float -> Random.State.t -> n_ops:int -> k:int -> z:int -> t
(** Churn-adversarial (delete-heavy) workload: the first
    [build_frac * n_ops] operations (default half) are pure inserts,
    then the remainder alternates FIFO deletes and fresh inserts at a
    [delete_bias] : [1 - delete_bias] ratio (default 3 deletes per
    insert), never draining the live population below one. This is the
    adversary for tombstone schemes: sustained deletes without matching
    inserts maximize the stored/live ratio the per-level partial
    rebuilds must keep below [1 + alpha]. *)
