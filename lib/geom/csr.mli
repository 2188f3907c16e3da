(** Compressed-sparse-row flattening of an [int list array].

    The batched MWU oracle re-reads every constraint's canonical-node
    list on every round; flattened into [offsets]/[ids] those sweeps are
    contiguous array reads instead of per-element pointer chases. Row
    and element order are preserved exactly, so folding a row yields the
    same value sequence — and the same float accumulation — as
    [List.fold_left] over the source list.

    Immutable after construction; safe to read from any number of
    domains concurrently. The fields are exposed for hot loops:
    row [i] occupies [ids.(offsets.(i) .. offsets.(i+1) - 1)]. *)

type t = private {
  offsets : int array;  (** length [rows + 1]; [offsets.(0) = 0] *)
  ids : int array;  (** length [offsets.(rows)] *)
}

val of_lists : int list array -> t
(** Flatten, preserving row and element order. *)

val transpose : t -> cols:int -> t
(** [transpose t ~cols] has one row per column [c] in [0 .. cols - 1],
    listing in ascending order the rows of [t] that contain [c] (a row
    that contains [c] twice is listed twice). Raises [Invalid_argument]
    when an element of [t] lies outside [0 .. cols - 1]. *)

val rows : t -> int
