(** Dynamic (insert/delete) wrapper over the static BBD tree, via the
    logarithmic method (Bentley–Saxe rebuild-by-level).

    Live points are partitioned into O(log n) static trees; level [i]
    holds at most [2^i] points. {!Ball.insert} merges the occupied
    prefix of levels (plus the new point) into the first free level —
    one static rebuild, amortized O(log n) build-shares per point.
    {!Ball.delete} tombstones the point inside the level that stores it
    and tracks a per-level dead counter; once a level's dead fraction
    reaches [alpha] of its live points, that single level is rebuilt in
    place from its survivors (weight-balanced partial rebuild). Every
    level therefore maintains [dead < alpha * live] between operations,
    i.e. per-level [stored < (1 + alpha) * live] — no global blowup,
    and no global stop-the-world rebuild.

    Queries union the per-level answers of the underlying static trees
    (same traversal scratch, counters and histograms as the batched
    [balls_all] path) and drop tombstones, returning live point ids
    sorted ascending — directly comparable with a static rebuild over
    the surviving points, and bit-identical across domain counts and
    with [CSO_OBS=0]. {!Ball.count_in_ball} answers tombstone-free
    levels straight from canonical-node counts without materializing
    points.

    Ids are dense non-negative integers assigned in insertion order and
    never reused. All operations are sequential; a [t] must not be
    mutated from multiple domains concurrently. *)

type stats = {
  inserts : int;
  deletes : int;
  level_rebuilds : int;
      (** static tree builds: insert-side merges plus partial rebuilds *)
  points_rebuilt : int;
      (** total points fed through static builds (the amortized-cost
          numerator: O(n log n) after n inserts) *)
  partial_rebuilds : int;
      (** dead-fraction-triggered per-level rebuilds (each one also
          counts in [level_rebuilds] unless the level emptied) *)
}

val default_alpha : float
(** Per-level dead-fraction rebuild threshold used when [?alpha] is not
    given: [0.25]. *)

(** BBD-tree levels: approximate (sandwich-guarantee) and exact ball
    queries under insertions and deletions. *)
module Ball : sig
  type t

  val create : ?alpha:float -> dim:int -> unit -> t
  (** Empty structure for points of the given dimension ([>= 1]).
      [alpha] (default {!default_alpha}) is the per-level dead-fraction
      rebuild threshold, in [(0, 1]]. *)

  val of_points : ?alpha:float -> Cso_metric.Point.t array -> t
  (** Point [i] of the (non-empty) array gets id [i]; equivalent to
      [n] inserts in order. *)

  val insert : t -> Cso_metric.Point.t -> int
  (** Returns the new point's id. Raises [Invalid_argument] on a
      dimension mismatch. Amortized O(log n) static-build shares. *)

  val delete : t -> int -> unit
  (** Tombstones the id inside its level; rebuilds that level in place
      if its dead fraction reaches [alpha] of its live points. Raises
      [Invalid_argument] if the id is unknown or already deleted.
      Amortized O(log n) rebuild shares. *)

  val mem : t -> int -> bool
  (** True iff the id is live. *)

  val point : t -> int -> Cso_metric.Point.t
  (** Coordinates of a live id (fresh copy). *)

  val dim : t -> int

  val alpha : t -> float
  (** The per-level rebuild threshold this structure was created with. *)

  val live_count : t -> int
  val stored_count : t -> int
  (** Points held inside level trees, tombstones included. Per level,
      [stored < (1 + alpha t) * live] (see {!level_stats}), so globally
      [live_count t <= stored_count t < (1 + alpha t) * live_count t]
      whenever any point is stored. *)

  val next_id : t -> int
  (** Total inserts so far; ids are [0 .. next_id - 1]. *)

  val live_ids : t -> int list
  (** Ascending. *)

  val live_points : t -> (int * Cso_metric.Point.t) list
  (** Ascending by id; coordinates are fresh copies. *)

  val level_sizes : t -> int list
  (** Stored size of each non-empty level, ascending by level index. *)

  val level_stats : t -> (int * int) list
  (** [(stored, live)] of each non-empty level, ascending by level
      index; [stored - live] tombstones. Invariant after every
      operation: [float (stored - live) < alpha t *. float live]. *)

  val stats : t -> stats

  val ball_points : t -> center:Cso_metric.Point.t -> radius:float ->
    eps:float -> int list
  (** Union of the per-level canonical ball answers, tombstones
      dropped, sorted ascending. Sandwich guarantee over the live set:
      [B(c,r) cap live] ⊆ answer ⊆ [B(c,(1+eps)r) cap live]. *)

  val ball_report : t -> center:Cso_metric.Point.t -> radius:float ->
    int list
  (** Exact closed ball ([ball_points] with [eps = 0], where the
      sandwich band degenerates): the live ids within [radius], sorted
      ascending — bit-identical to a linear scan of the survivors. *)

  val count_in_ball : t -> center:Cso_metric.Point.t -> radius:float -> int
  (** [List.length (ball_report ...)], but tombstone-free levels are
      answered from canonical-node counts without materializing
      points. *)
end
