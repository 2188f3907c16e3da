(** On-disk format for relational instances.

    A schema is written as a spec string like ["R1(A,B);R2(B,C)"]:
    relation names with attribute-name lists; the global attribute order
    is the order of first appearance. Each relation's tuples live in
    their own CSV file (same float format as {!Formats}), columns in the
    relation's declared attribute order. *)

val parse_schema : string -> Cso_relational.Schema.t
(** Raises [Failure] on malformed specs. *)

val schema_to_spec : Cso_relational.Schema.t -> string
(** Inverse of {!parse_schema} (round-trips modulo whitespace). *)

val load : schema:string -> files:string list ->
  Cso_relational.Instance.t * Cso_relational.Join_tree.t
(** [load ~schema ~files] reads one CSV per relation (same order as the
    spec) and builds the join tree. Raises [Failure] on arity mismatch,
    a nan value (both reported as [path:lineno:]), file errors, or a
    cyclic schema (decompose cyclic schemas with
    {!Cso_relational.Hypertree} instead). *)

val save : Cso_relational.Instance.t -> files:string list -> unit
(** Writes each relation to its CSV file. *)
