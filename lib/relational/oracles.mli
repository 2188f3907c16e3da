(** The relational oracles of Section 4 (Lemmas 4.1 and 4.2).

    All operate on an acyclic instance + join tree without materializing
    [Q(I)]:

    - [count_rect] / [sample_rect] / [any_in_rect]: Lemma 4.1, counting,
      sampling and retrieving join results inside a hyper-rectangle;
      [any_in_rect] runs on a {!prepared} handle, built once per
      instance;
    - [rel_cluster]: Lemma 4.2, relational k-center (our Gonzalez-based
      implementation, DESIGN.md substitution 5);
    - [candidate_linf_distances]: the binary-search lattice replacing the
      l-th smallest L_inf distance primitive of [4] (substitution 4);
    - [farthest_linf]: exact farthest join result (in L_inf) from a
      center set, via complement-of-boxes decomposition. *)

val count_rect : Instance.t -> Join_tree.t -> Cso_geom.Rect.t -> int
(** [|Q(I) cap rect|]. *)

val sample_rect : ?rng:Random.State.t -> Instance.t -> Join_tree.t ->
  Cso_geom.Rect.t -> int -> Cso_metric.Point.t array
(** Uniform samples (with replacement) from [Q(I) cap rect]. *)

type prepared
(** An instance and join tree prepared for repeated rectangle queries:
    each relation's attribute positions, an interned int key for every
    tuple on each join-tree edge, and the scratch one query uses. The
    scratch belongs to the handle, so a handle serves one caller at a
    time. *)

val prepare : Instance.t -> Join_tree.t -> prepared
(** [O(N)] key projections and hash lookups, done once. *)

val any_in_rect : prepared -> Cso_geom.Rect.t -> Cso_metric.Point.t option
(** Exactly [Yannakakis.any (Instance.filter_rect inst rect) tree] for
    the prepared [inst] (minus what {!remove} took out), with the same
    [relational.oracle.any_in_rect] count, in one [O(N)] pass that
    copies no tuple and hashes no key. Allocates only the returned
    point. Raises [Invalid_argument] on a dimension mismatch. *)

val remove : prepared -> (int * float array) list -> unit
(** [remove h victims] takes out of later queries on [h] exactly the
    tuples [Instance.remove inst victims] drops: the handle then answers
    as one prepared on that instance would, since removal keeps tuple
    order. *)

val restore : prepared -> unit
(** Undoes every {!remove} on the handle. *)

val candidate_linf_distances : Instance.t -> float array
(** Sorted deduplicated candidates (0. included) containing every
    realizable per-attribute coordinate difference — hence every L_inf
    distance between join results. *)

val farthest_linf : prepared ->
  centers:Cso_metric.Point.t list -> cand:float array ->
  Cso_metric.Point.t option * float
(** [(witness, delta)] where [delta] is the maximum over join results of
    the minimum L_inf distance to a center and [witness] attains it
    ([None] iff [delta = 0.]). [cand] must come from
    [candidate_linf_distances] on (a superset of) this instance.
    [centers] must be non-empty. Each probe is an {!any_in_rect} on the
    handle. *)

val rel_cluster : Instance.t -> Join_tree.t -> k:int ->
  Cso_metric.Point.t list * float
(** Lemma 4.2: [ (s, r_s) ] with [|s| <= k], [s subseteq Q(I)] and
    [rho_2(s, Q(I)) <= r_s <= 2 sqrt(d) rho_k^*(Q(I))]. Returns
    [([], 0.)] on an empty join. Prepares the instance once. *)
