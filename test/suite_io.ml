module Formats = Cso_io.Formats
module Rect = Cso_geom.Rect

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("cso_io_" ^ name)

let test_points_round_trip () =
  let pts = [| [| 1.5; -2.25 |]; [| 0.1; 3e10 |]; [| -0.0; 7.0 |] |] in
  let path = tmp "points.csv" in
  Formats.write_points path pts;
  let got = Formats.read_points path in
  Alcotest.(check int) "count" 3 (Array.length got);
  Array.iteri
    (fun i p ->
      Array.iteri
        (fun j x -> Alcotest.(check (float 0.0)) "coord" x got.(i).(j))
        p)
    pts

let test_rects_round_trip () =
  let rects =
    [|
      Rect.of_intervals [ (0.0, 1.0); (neg_infinity, infinity) ];
      Rect.of_intervals [ (-5.5, -5.5); (2.0, 3.0) ];
    |]
  in
  let path = tmp "rects.csv" in
  Formats.write_rects path rects;
  let got = Formats.read_rects path in
  Alcotest.(check int) "count" 2 (Array.length got);
  Array.iteri
    (fun i (r : Rect.t) ->
      Alcotest.(check bool) "lo" true (r.Rect.lo = got.(i).Rect.lo);
      Alcotest.(check bool) "hi" true (r.Rect.hi = got.(i).Rect.hi))
    rects

let test_sets_round_trip () =
  let sets = [ [ 0; 1; 2 ]; [ 5 ]; [ 3; 4 ] ] in
  let path = tmp "sets.txt" in
  Formats.write_sets path sets;
  Alcotest.(check (list (list int))) "sets" sets (Formats.read_sets path)

let test_parse_float_specials () =
  Alcotest.(check bool) "inf" true (Formats.parse_float " INF " = infinity);
  Alcotest.(check bool) "-infinity" true
    (Formats.parse_float "-Infinity" = neg_infinity);
  Alcotest.(check (float 0.0)) "plain" 2.5 (Formats.parse_float "2.5");
  Alcotest.(check bool) "garbage raises" true
    (try
       ignore (Formats.parse_float "abc");
       false
     with Failure _ -> true)

let test_error_location () =
  let path = tmp "bad.csv" in
  let oc = open_out path in
  output_string oc "1.0,2.0\nnope,3.0\n";
  close_out oc;
  match Formats.read_points path with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure msg ->
      Alcotest.(check bool) "mentions line 2" true
        (String.length msg > 0
        &&
        let needle = ":2:" in
        let rec contains i =
          i + String.length needle <= String.length msg
          && (String.sub msg i (String.length needle) = needle
             || contains (i + 1))
        in
        contains 0)

let open_fd_count () =
  (* Linux: one entry per open descriptor (plus the readdir fd itself,
     identical on both sides of the comparison). *)
  Array.length (Sys.readdir "/proc/self/fd")

let test_raising_parser_leaks_no_channel () =
  let path = tmp "leak.csv" in
  Formats.write_points path [| [| 1.0 |]; [| 2.0 |] |];
  let before = open_fd_count () in
  (* A parser that raises a non-Failure exception: pre-fix, with_lines
     only closed the channel on Failure, so each iteration leaked one
     descriptor. 2000 rounds make the leak unmistakable in the fd
     table. *)
  for _ = 1 to 2000 do
    match Formats.with_lines path (fun _ -> raise Exit) with
    | _ -> Alcotest.fail "expected the parser exception to propagate"
    | exception Exit -> ()
  done;
  let after = open_fd_count () in
  Alcotest.(check int) "no leaked descriptors" before after;
  (* Failure keeps its located re-raise behavior. *)
  (match Formats.with_lines path (fun _ -> failwith "boom") with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure msg ->
      Alcotest.(check bool) "located" true
        (String.length msg >= 2 && msg.[0] <> 'b'));
  let after' = open_fd_count () in
  Alcotest.(check int) "no leak on Failure either" before after'

let test_load_geo_instance () =
  let ppath = tmp "gi_points.csv" and rpath = tmp "gi_rects.csv" in
  Formats.write_points ppath [| [| 0.5 |]; [| 2.0 |] |];
  Formats.write_rects rpath
    [| Rect.of_intervals [ (0.0, 1.0) ]; Rect.of_intervals [ (1.5, 3.0) ] |];
  let g = Formats.load_geo_instance ~points:ppath ~rects:rpath ~k:1 ~z:1 in
  Alcotest.(check int) "f" 1 (Cso_core.Geo_instance.frequency g)

(* The refcheck harness serializes fuzz instances through
   [float_to_string] / [parse_float]; the round trip must be exact at the
   bit level for every representable double — including the specials and
   the subnormal range — or replayed counterexamples would diverge. *)
let prop_float_round_trip =
  let specials =
    [
      nan; infinity; neg_infinity; 0.0; -0.0; 1.0; -1.0; epsilon_float;
      min_float; max_float; 4.94065645841246544e-324 (* smallest subnormal *);
      1.1e-310 (* subnormal *); 0.1; -0.30000000000000004;
    ]
  in
  let gen =
    QCheck.Gen.(
      oneof
        [
          oneofl specials;
          float;
          (* Arbitrary bit patterns cover the whole representable range,
             weird nan payloads included. *)
          map
            (fun (hi, lo) ->
              Int64.float_of_bits
                (Int64.logor
                   (Int64.shift_left (Int64.of_int hi) 32)
                   (Int64.of_int (lo land 0xFFFFFFFF))))
            (pair (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF));
        ])
  in
  QCheck.Test.make ~name:"parse_float/float_to_string round trip is bit-exact"
    ~count:2000 ~long_factor:3
    (QCheck.make ~print:Formats.float_to_string gen)
    (fun x ->
      let y = Formats.parse_float (Formats.float_to_string x) in
      if Float.is_nan x then Float.is_nan y
      else Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))

let suite =
  [
    Alcotest.test_case "points round trip" `Quick test_points_round_trip;
    Alcotest.test_case "rects round trip" `Quick test_rects_round_trip;
    Alcotest.test_case "sets round trip" `Quick test_sets_round_trip;
    Alcotest.test_case "parse_float specials" `Quick test_parse_float_specials;
    QCheck_alcotest.to_alcotest prop_float_round_trip;
    Alcotest.test_case "errors carry file:line" `Quick test_error_location;
    Alcotest.test_case "raising parser leaks no channel" `Quick
      test_raising_parser_leaks_no_channel;
    Alcotest.test_case "load geo instance" `Quick test_load_geo_instance;
  ]

(* --- Relational formats --- *)

module Relational_io = Cso_io.Relational_io
module Rel = Cso_relational

let test_schema_round_trip () =
  let spec = "R1(A,B);R2(B,C);R3(B,D)" in
  let schema = Relational_io.parse_schema spec in
  Alcotest.(check string) "round trip" spec (Relational_io.schema_to_spec schema);
  Alcotest.(check int) "dims" 4 (Rel.Schema.dims schema);
  Alcotest.(check int) "relations" 3 (Rel.Schema.n_relations schema)

let test_schema_errors () =
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true
        (try
           ignore (Relational_io.parse_schema bad);
           false
         with Failure _ -> true))
    [ ""; "R1"; "R1()"; "R1(A"; "(A,B)" ]

let test_relational_load_save () =
  let f1 = tmp "rel_r1.csv" and f2 = tmp "rel_r2.csv" in
  Formats.write_points f1 [| [| 1.0; 10.0 |]; [| 2.0; 20.0 |] |];
  Formats.write_points f2 [| [| 10.0; 5.0 |]; [| 20.0; 7.0 |] |];
  let inst, tree =
    Relational_io.load ~schema:"R1(A,B);R2(B,C)" ~files:[ f1; f2 ]
  in
  Alcotest.(check int) "join size" 2 (Rel.Yannakakis.count inst tree);
  (* Save and reload: same join. *)
  let g1 = tmp "rel_r1b.csv" and g2 = tmp "rel_r2b.csv" in
  Relational_io.save inst ~files:[ g1; g2 ];
  let inst2, tree2 =
    Relational_io.load ~schema:"R1(A,B);R2(B,C)" ~files:[ g1; g2 ]
  in
  Alcotest.(check int) "reloaded join size" 2 (Rel.Yannakakis.count inst2 tree2)

let test_relational_load_errors () =
  let f1 = tmp "rel_bad.csv" in
  Formats.write_points f1 [| [| 1.0 |] |];
  Alcotest.(check bool) "arity mismatch" true
    (try
       ignore (Relational_io.load ~schema:"R1(A,B);R2(B,C)" ~files:[ f1; f1 ]);
       false
     with Failure _ -> true);
  Alcotest.(check bool) "cyclic schema rejected" true
    (try
       ignore
         (Relational_io.load ~schema:"R(A,B);S(B,C);T(A,C)"
            ~files:[ f1; f1; f1 ]);
       false
     with Failure _ -> true)

let contains_sub msg needle =
  let rec go i =
    i + String.length needle <= String.length msg
    && (String.sub msg i (String.length needle) = needle || go (i + 1))
  in
  go 0

(* Regression: relational load failures must carry the offending file
   path AND line number, like every Formats reader. Pre-fix the arity
   check ran after [read_points] returned and reported only the path. *)
let test_relational_load_error_location () =
  let f1 = tmp "rel_loc_r1.csv" and f2 = tmp "rel_loc_r2.csv" in
  Formats.write_points f2 [| [| 10.0; 5.0 |] |];
  (* Line 2 of f1 has 3 columns where R1(A,B) demands 2. *)
  let oc = open_out f1 in
  output_string oc "1.0,10.0\n2.0,20.0,99.0\n";
  close_out oc;
  (match Relational_io.load ~schema:"R1(A,B);R2(B,C)" ~files:[ f1; f2 ] with
  | _ -> Alcotest.fail "expected arity failure"
  | exception Failure msg ->
      Alcotest.(check bool) "arity error names the file" true
        (contains_sub msg f1);
      Alcotest.(check bool) "arity error names the line" true
        (contains_sub msg (f1 ^ ":2:"));
      Alcotest.(check bool) "arity error says what is wrong" true
        (contains_sub msg "expected 2 columns, got 3"));
  (* A malformed float keeps its located message through the same path. *)
  let oc = open_out f1 in
  output_string oc "1.0,10.0\n1.0,nope\n";
  close_out oc;
  (match Relational_io.load ~schema:"R1(A,B);R2(B,C)" ~files:[ f1; f2 ] with
  | _ -> Alcotest.fail "expected float failure"
  | exception Failure msg ->
      Alcotest.(check bool) "float error has path:line" true
        (contains_sub msg (f1 ^ ":2:")));
  (* Schema-level failures name the offending spec. *)
  Formats.write_points f1 [| [| 1.0; 10.0 |] |];
  match
    Relational_io.load ~schema:"R(A,B);S(B,C);T(A,C)" ~files:[ f1; f1; f1 ]
  with
  | _ -> Alcotest.fail "expected cyclic failure"
  | exception Failure msg ->
      Alcotest.(check bool) "cyclic error names the schema" true
        (contains_sub msg "R(A,B);S(B,C);T(A,C)")

(* Regression: a nan read from a relation file used to load, and the
   oracles then answered with points outside their rectangle. The
   loader now refuses it at its file and line. *)
let test_relational_load_nan () =
  let f1 = tmp "rel_nan_r1.csv" and f2 = tmp "rel_nan_r2.csv" in
  let oc = open_out f1 in
  output_string oc "1.0,10.0\nnan,10.0\n";
  close_out oc;
  Formats.write_points f2 [| [| 10.0; 5.0 |] |];
  match Relational_io.load ~schema:"R1(A,B);R2(B,C)" ~files:[ f1; f2 ] with
  | _ -> Alcotest.fail "expected a nan failure"
  | exception Failure msg ->
      Alcotest.(check bool) "nan error has path:line" true
        (contains_sub msg (f1 ^ ":2:"));
      Alcotest.(check bool) "nan error says what is wrong" true
        (contains_sub msg "nan")

let test_rect_odd_values () =
  let path = tmp "odd_rect.csv" in
  let oc = open_out path in
  output_string oc "1.0,2.0,3.0\n";
  close_out oc;
  Alcotest.(check bool) "odd rect values rejected" true
    (try
       ignore (Formats.read_rects path);
       false
     with Failure _ -> true)

let test_rect_lo_gt_hi () =
  let path = tmp "bad_rect.csv" in
  let oc = open_out path in
  output_string oc "5.0,2.0\n";
  close_out oc;
  Alcotest.(check bool) "lo > hi rejected" true
    (try
       ignore (Formats.read_rects path);
       false
     with Failure _ -> true)

let relational_suite =
  [
    Alcotest.test_case "schema round trip" `Quick test_schema_round_trip;
    Alcotest.test_case "schema errors" `Quick test_schema_errors;
    Alcotest.test_case "relational load/save" `Quick test_relational_load_save;
    Alcotest.test_case "relational load errors" `Quick
      test_relational_load_errors;
    Alcotest.test_case "relational load errors carry file:line" `Quick
      test_relational_load_error_location;
    Alcotest.test_case "relational load refuses nan" `Quick
      test_relational_load_nan;
    Alcotest.test_case "rect file odd values" `Quick test_rect_odd_values;
    Alcotest.test_case "rect file lo > hi" `Quick test_rect_lo_gt_hi;
  ]

let suite = suite @ relational_suite
