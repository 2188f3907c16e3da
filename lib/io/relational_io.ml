module Rel = Cso_relational

(* "R1(A,B);R2(B,C)" -> (name, attr names) list *)
let parse_spec_relations spec =
  String.split_on_char ';' spec
  |> List.filter_map (fun part ->
         let part = String.trim part in
         if part = "" then None
         else
           match String.index_opt part '(' with
           | None -> failwith (Printf.sprintf "schema: missing '(' in %S" part)
           | Some i ->
               if part.[String.length part - 1] <> ')' then
                 failwith (Printf.sprintf "schema: missing ')' in %S" part);
               let name = String.trim (String.sub part 0 i) in
               let attrs_str =
                 String.sub part (i + 1) (String.length part - i - 2)
               in
               let attrs =
                 String.split_on_char ',' attrs_str
                 |> List.map String.trim
                 |> List.filter (fun s -> s <> "")
               in
               if name = "" then failwith "schema: empty relation name";
               if attrs = [] then
                 failwith (Printf.sprintf "schema: no attributes in %S" part);
               Some (name, attrs))

let parse_schema spec =
  let rels = parse_spec_relations spec in
  if rels = [] then failwith "schema: no relations";
  (* Global attribute order: first appearance. *)
  let attr_names = ref [] in
  List.iter
    (fun (_, attrs) ->
      List.iter
        (fun a -> if not (List.mem a !attr_names) then attr_names := a :: !attr_names)
        attrs)
    rels;
  let attr_names = List.rev !attr_names in
  let index a =
    let rec go i = function
      | [] -> assert false
      | x :: _ when x = a -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 attr_names
  in
  try
    Rel.Schema.make ~attr_names
      (List.map (fun (name, attrs) -> (name, List.map index attrs)) rels)
  with Invalid_argument msg -> failwith (Printf.sprintf "schema %S: %s" spec msg)

let schema_to_spec (schema : Rel.Schema.t) =
  Array.to_list schema.Rel.Schema.relations
  |> List.map (fun (r : Rel.Schema.relation) ->
         Printf.sprintf "%s(%s)" r.Rel.Schema.rel_name
           (String.concat ","
              (Array.to_list
                 (Array.map
                    (fun a -> schema.Rel.Schema.attr_names.(a))
                    r.Rel.Schema.attrs))))
  |> String.concat ";"

let load ~schema ~files =
  let sch = parse_schema schema in
  let g = Rel.Schema.n_relations sch in
  if List.length files <> g then
    failwith
      (Printf.sprintf "expected %d relation files, got %d" g
         (List.length files));
  let tuples =
    Array.of_list
      (List.mapi
         (fun i path ->
           let arity = Array.length (Rel.Schema.rel_attrs sch i) in
           (* Parse, arity- and nan-check inside the per-line callback so
              every failure — bad float, wrong column count or a nan
              that [Instance.of_arrays] would refuse — carries the
              [path:lineno:] prefix [with_lines] attaches. *)
           Array.of_list
             (Formats.with_lines path (fun line ->
                  let row =
                    String.split_on_char ',' line
                    |> List.map Formats.parse_float
                    |> Array.of_list
                  in
                  if Array.length row <> arity then
                    failwith
                      (Printf.sprintf "expected %d columns, got %d" arity
                         (Array.length row));
                  Array.iteri
                    (fun col x ->
                      if Float.is_nan x then
                        failwith
                          (Printf.sprintf "nan in column %d: relations \
                                           hold no nan values"
                             (col + 1)))
                    row;
                  row)))
         files)
  in
  let inst =
    try Rel.Instance.of_arrays sch tuples
    with Invalid_argument msg ->
      failwith
        (Printf.sprintf "%s: %s" (String.concat "," files) msg)
  in
  match Rel.Join_tree.build sch with
  | Some tree -> (inst, tree)
  | None ->
      failwith
        (Printf.sprintf
           "schema %S: cyclic: decompose it first (see \
            Cso_relational.Hypertree)"
           schema)

let save (inst : Rel.Instance.t) ~files =
  let g = Rel.Schema.n_relations inst.Rel.Instance.schema in
  if List.length files <> g then
    failwith
      (Printf.sprintf "expected %d relation files, got %d" g
         (List.length files));
  List.iteri
    (fun i path -> Formats.write_points path inst.Rel.Instance.tuples.(i))
    files
