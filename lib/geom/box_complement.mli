(** Hyper-rectangular decomposition of the complement of a union of boxes
    (the structure [M(G)] of Section 4.1.2, [5, 44]).

    Given [k] boxes in [R^d], [decompose] returns [O((2k+1)^d)] pairwise
    interior-disjoint rectangles whose union covers exactly the complement
    of the union of the boxes (within the optional domain, the whole of
    [R^d] by default). Built on the coordinate grid induced by the box
    faces. *)

val decompose : ?domain:Rect.t -> Rect.t list -> int -> Rect.t list
(** [decompose ?domain boxes d] where [d] is the dimension. Every point of
    [domain] not interior to any box is covered by some returned cell;
    every returned cell's interior is disjoint from every box's interior.
    Cells are closed rectangles, so cell boundaries may touch boxes. *)

val find_map : ?domain:Rect.t -> ?keep:(int -> Rect.t -> bool) ->
  Rect.t list -> int -> (Rect.t -> 'a option) -> 'a option
(** [find_map ?domain ?keep boxes d f] applies [f] to the cells of
    [decompose ?domain boxes d], in its order, and returns the first
    [Some], without building the list. [f] receives one scratch cell
    that the next cell overwrites: copy it to keep it.

    The cells are the leaves of a walk that fixes dimension 0's interval
    first. Right after fixing dimension [j]'s interval, the walk calls
    [keep j cell], where [cell] is the scratch cell, valid on dimensions
    [0 .. j] only. On [false] it skips every cell below that prefix.
    [keep] is called once per prefix the walk reaches; by default it
    keeps everything. *)

val cover_test : Rect.t list -> Cso_metric.Point.t -> bool
(** [cover_test boxes p] is true iff [p] lies in some box (closed). *)
