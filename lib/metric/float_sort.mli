(** Monomorphic float-keyed sorts that return stdlib [Array.sort]'s
    exact permutation.

    [Array.sort] is a ternary heap sort and not stable, so the order it
    leaves among keys that compare equal ([0.] and [-0.], nan and nan,
    repeated values) is a function of its own comparison sequence.
    Callers whose outputs are pinned to that order — GCSO's top-k tie
    fallback, the WSPD candidate lattice, the tree builds' median splits
    — need the same permutation, not merely a sorted one. Each entry
    point here is a line-by-line transcription of that heap sort over a
    float key array (and, for the [ids] forms, an int array carried
    beside it). Keys compare by {!Float.compare}, read unboxed, so no
    comparison allocates or calls a closure.

    [len] must lie in [[0, Array.length keys]] (and [Array.length ids]
    where given), else [Invalid_argument]; only the prefix [[0, len)]
    is read or written. *)

val floats : float array -> int -> unit
(** [floats a len] sorts [a.(0 .. len-1)] ascending: the prefix then
    holds, bit for bit, what [Array.sort Float.compare] leaves in
    [Array.sub a 0 len]. *)

val ids_by_key : float array -> int array -> int -> unit
(** [ids_by_key keys ids len] sorts the pairs [(keys.(i), ids.(i))],
    [i < len], ascending by key. When [keys.(i) = key ids.(i)] for some
    function [key], the ids end exactly as
    [Array.sort (fun a b -> Float.compare (key a) (key b))] leaves them,
    and [keys.(i) = key ids.(i)] still holds. *)

val ids_by_key_desc : float array -> int array -> int -> unit
(** [ids_by_key] descending: the permutation of
    [Array.sort (fun a b -> Float.compare (key b) (key a))]. *)

val sort_uniq : float array -> int -> int
(** [sort_uniq a len] sorts [a.(0 .. len-1)] ascending, keeps the first
    of each run of [=]-equal values (every nan stays) in
    [a.(0 .. m-1)] and returns [m]: bit for bit what {!floats} followed
    by that dedupe leaves, on every input. Entries from [m] on are
    unspecified.

    The order the heap sort leaves among equal keys can show only
    through a nan or a [-0.]: any other two floats that compare equal
    have the same bits. So a prefix holding either is sorted with
    {!floats}, and any other prefix with an introsort (median-of-three
    quicksort, insertion sort on short ranges, and a restart with
    {!floats} past depth 2 log2 [len]): O([len] log [len]) comparisons
    in the worst case, none of them allocating. *)
