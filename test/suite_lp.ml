open Cso_lp

let rng = Random.State.make [| 99 |]

let test_simplex_known_optimum () =
  (* max 3x + 2y  s.t.  x + y <= 4, x + 3y <= 6, x,y in [0, 10]
     -> optimum at (4, 0), value 12. *)
  let p =
    {
      Simplex.num_vars = 2;
      objective = [| 3.0; 2.0 |];
      constraints =
        [
          ([| 1.0; 1.0 |], Simplex.Le, 4.0);
          ([| 1.0; 3.0 |], Simplex.Le, 6.0);
        ];
      bounds = Simplex.box ~hi:10.0 2;
    }
  in
  match Simplex.solve p with
  | Simplex.Optimal { value; solution; _ } ->
      Alcotest.(check (float 1e-6)) "value" 12.0 value;
      Alcotest.(check (float 1e-6)) "x" 4.0 solution.(0);
      Alcotest.(check (float 1e-6)) "y" 0.0 solution.(1)
  | _ -> Alcotest.fail "expected optimum"

let test_simplex_binding_box () =
  (* max x + y s.t. x + y >= 1, both in [0,1] -> value 2 at (1,1). *)
  let p =
    {
      Simplex.num_vars = 2;
      objective = [| 1.0; 1.0 |];
      constraints = [ ([| 1.0; 1.0 |], Simplex.Ge, 1.0) ];
      bounds = Simplex.box 2;
    }
  in
  match Simplex.solve p with
  | Simplex.Optimal { value; _ } -> Alcotest.(check (float 1e-6)) "value" 2.0 value
  | _ -> Alcotest.fail "expected optimum"

let test_simplex_infeasible () =
  let p =
    {
      Simplex.num_vars = 1;
      objective = [| 0.0 |];
      constraints = [ ([| 1.0 |], Simplex.Ge, 2.0) ];
      bounds = Simplex.box 1 (* x <= 1 but x >= 2 required *);
    }
  in
  Alcotest.(check bool) "infeasible" true (Simplex.solve p = Simplex.Infeasible);
  Alcotest.(check bool) "no feasible point" true (Simplex.feasible_point p = None)

let test_simplex_equality () =
  (* max y s.t. x + y = 1, x in [0,1], y in [0,1]. *)
  let p =
    {
      Simplex.num_vars = 2;
      objective = [| 0.0; 1.0 |];
      constraints = [ ([| 1.0; 1.0 |], Simplex.Eq, 1.0) ];
      bounds = Simplex.box 2;
    }
  in
  match Simplex.solve p with
  | Simplex.Optimal { value; solution; _ } ->
      Alcotest.(check (float 1e-6)) "value" 1.0 value;
      Alcotest.(check (float 1e-6)) "sum" 1.0 (solution.(0) +. solution.(1))
  | _ -> Alcotest.fail "expected optimum"

let test_simplex_lower_bounds () =
  (* Shifted bounds: x in [2,3], minimize x (max -x) -> 2. *)
  let p =
    {
      Simplex.num_vars = 1;
      objective = [| -1.0 |];
      constraints = [];
      bounds = [| (2.0, 3.0) |];
    }
  in
  match Simplex.solve p with
  | Simplex.Optimal { solution; _ } ->
      Alcotest.(check (float 1e-6)) "x at lower bound" 2.0 solution.(0)
  | _ -> Alcotest.fail "expected optimum"

let test_simplex_validation () =
  let bad =
    {
      Simplex.num_vars = 1;
      objective = [| 1.0 |];
      constraints = [];
      bounds = [| (-1.0, 1.0) |];
    }
  in
  Alcotest.check_raises "negative lower bound"
    (Invalid_argument "Simplex: negative lower bound") (fun () ->
      ignore (Simplex.solve bad))

(* A nan fails every comparison, so an unvalidated one comes back as a
   wrong outcome rather than an error: Unbounded for a nan lower bound,
   Optimal x = 1 for x <= nan, Optimal for nan * x >= 0.5, Optimal nan
   for a nan objective. *)
let test_simplex_rejects_nan () =
  let p =
    {
      Simplex.num_vars = 1;
      objective = [| 1.0 |];
      constraints = [ ([| 1.0 |], Simplex.Le, 5.0) ];
      bounds = [| (0.0, 1.0) |];
    }
  in
  let rejects name p =
    match Simplex.solve p with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  rejects "nan lower bound" { p with bounds = [| (nan, 1.0) |] };
  rejects "nan upper bound" { p with bounds = [| (0.0, nan) |] };
  rejects "nan rhs" { p with constraints = [ ([| 1.0 |], Simplex.Le, nan) ] };
  rejects "nan coefficient"
    { p with constraints = [ ([| nan |], Simplex.Ge, 0.5) ] };
  rejects "nan objective" { p with objective = [| nan |] };
  rejects "infinite lower bound" { p with bounds = [| (infinity, infinity) |] };
  rejects "infinite rhs"
    { p with constraints = [ ([| 1.0 |], Simplex.Le, infinity) ] }

(* [hi = infinity] builds no bound row, and over [0, +inf) the duals are
   the textbook ones, with the sign of a row whose rhs the solver negated
   restored. *)
let test_simplex_infinite_upper_bound () =
  let nonneg n = Simplex.box ~hi:infinity n in
  let p =
    {
      Simplex.num_vars = 2;
      objective = [| 1.0; 1.0 |];
      constraints =
        [
          ([| 1.0; 2.0 |], Simplex.Le, 4.0);
          ([| 3.0; 1.0 |], Simplex.Le, 6.0);
        ];
      bounds = nonneg 2;
    }
  in
  (match Simplex.solve p with
  | Simplex.Optimal { value; solution; duals } ->
      Alcotest.(check (float 1e-9)) "value" 2.8 value;
      Alcotest.(check (float 1e-9)) "x" 1.6 solution.(0);
      Alcotest.(check (float 1e-9)) "y" 1.2 solution.(1);
      Alcotest.(check (array (float 1e-9))) "duals" [| 0.4; 0.2 |] duals
  | _ -> Alcotest.fail "expected optimum");
  (* max c x s.t. a x OP b, x >= 0. *)
  let one c a op b =
    {
      Simplex.num_vars = 1;
      objective = [| c |];
      constraints = [ ([| a |], op, b) ];
      bounds = nonneg 1;
    }
  in
  (match Simplex.solve (one (-1.0) 1.0 Simplex.Ge 2.0) with
  | Simplex.Optimal { value; duals; _ } ->
      Alcotest.(check (float 1e-9)) "x >= 2: value" (-2.0) value;
      Alcotest.(check (array (float 1e-9))) "x >= 2: Ge dual" [| -1.0 |] duals
  | _ -> Alcotest.fail "x >= 2: expected optimum");
  (match Simplex.solve (one (-1.0) (-1.0) Simplex.Le (-2.0)) with
  | Simplex.Optimal { value; duals; _ } ->
      Alcotest.(check (float 1e-9)) "-x <= -2: value" (-2.0) value;
      Alcotest.(check (array (float 1e-9))) "-x <= -2: Le dual" [| 1.0 |] duals
  | _ -> Alcotest.fail "-x <= -2: expected optimum");
  Alcotest.(check bool) "max x s.t. x >= 1 is unbounded" true
    (Simplex.solve (one 1.0 1.0 Simplex.Ge 1.0) = Simplex.Unbounded)

(* Random LPs: whatever the solver returns as Optimal must actually be
   feasible and consistent. *)
let prop_simplex_solutions_feasible =
  QCheck.Test.make ~name:"simplex optimal solutions satisfy all constraints"
    ~count:80
    QCheck.(pair (int_range 1 6) (int_range 0 6))
    (fun (nv, nc) ->
      let constraints =
        List.init nc (fun _ ->
            let a =
              Array.init nv (fun _ -> float_of_int (Random.State.int rng 7 - 3))
            in
            let b = float_of_int (Random.State.int rng 10 - 2) in
            let op =
              match Random.State.int rng 3 with
              | 0 -> Simplex.Le
              | 1 -> Simplex.Ge
              | _ -> Simplex.Eq
            in
            (a, op, b))
      in
      let objective =
        Array.init nv (fun _ -> float_of_int (Random.State.int rng 11 - 5))
      in
      let p =
        { Simplex.num_vars = nv; objective; constraints; bounds = Simplex.box nv }
      in
      match Simplex.solve p with
      | Simplex.Infeasible | Simplex.Unbounded -> true
      | Simplex.Optimal { value; solution; _ } ->
          let tol = 1e-6 in
          Array.for_all (fun x -> x >= -.tol && x <= 1.0 +. tol) solution
          && List.for_all
               (fun (a, op, b) ->
                 let lhs = ref 0.0 in
                 Array.iteri (fun i c -> lhs := !lhs +. (c *. solution.(i))) a;
                 match op with
                 | Simplex.Le -> !lhs <= b +. tol
                 | Simplex.Ge -> !lhs >= b -. tol
                 | Simplex.Eq -> abs_float (!lhs -. b) <= tol)
               constraints
          &&
          let v = ref 0.0 in
          Array.iteri (fun i c -> v := !v +. (c *. solution.(i))) objective;
          abs_float (!v -. value) <= tol)

(* Cross-check optimality on 1-2 variable LPs against grid search. *)
let prop_simplex_matches_grid =
  QCheck.Test.make ~name:"simplex matches grid search on tiny LPs" ~count:40
    QCheck.(int_range 0 4)
    (fun nc ->
      let nv = 2 in
      let constraints =
        List.init nc (fun _ ->
            let a =
              Array.init nv (fun _ -> float_of_int (Random.State.int rng 5 - 2))
            in
            let b = float_of_int (Random.State.int rng 4) in
            (a, Simplex.Le, b))
      in
      let objective = [| 1.0; 2.0 |] in
      let p =
        { Simplex.num_vars = nv; objective; constraints; bounds = Simplex.box nv }
      in
      let grid_best = ref neg_infinity in
      let steps = 60 in
      for i = 0 to steps do
        for j = 0 to steps do
          let x = float_of_int i /. float_of_int steps in
          let y = float_of_int j /. float_of_int steps in
          let ok =
            List.for_all
              (fun (a, _, b) -> (a.(0) *. x) +. (a.(1) *. y) <= b +. 1e-9)
              constraints
          in
          if ok then grid_best := max !grid_best (x +. (2.0 *. y))
        done
      done;
      match Simplex.solve p with
      | Simplex.Optimal { value; _ } ->
          (* The grid underestimates; simplex must be >= grid and close. *)
          value >= !grid_best -. 1e-6 && value <= !grid_best +. 0.1
      | Simplex.Infeasible -> !grid_best = neg_infinity
      | Simplex.Unbounded -> false)

(* --- MWU --- *)

let test_mwu_feasible_toy () =
  (* Constraints x1 >= 1-eps and x2 >= 1-eps over P = {x in [0,1]^2}:
     oracle just returns (1,1). *)
  let oracle _sigma = Some [| 1.0; 1.0 |] in
  let violation x = [| x.(0) -. 1.0; x.(1) -. 1.0 |] in
  match Mwu.run ~m:2 ~width:1.0 ~eps:0.2 ~oracle ~violation () with
  | Mwu.Feasible sols -> Alcotest.(check bool) "some rounds" true (sols <> [])
  | Mwu.Infeasible -> Alcotest.fail "expected feasible"

let test_mwu_infeasible_toy () =
  let oracle _sigma = None in
  let violation _ = [| 0.0 |] in
  Alcotest.(check bool) "infeasible" true
    (Mwu.run ~m:1 ~width:1.0 ~eps:0.2 ~oracle ~violation () = Mwu.Infeasible)

let test_mwu_averaging_converges () =
  (* One unit of mass must cover two constraints alternately: the oracle
     puts everything on the currently heaviest constraint; the average
     must satisfy both within eps. This is the classic MWU toy. *)
  let eps = 0.1 in
  let oracle sigma =
    if sigma.(0) >= sigma.(1) then Some [| 1.0; 0.0 |] else Some [| 0.0; 1.0 |]
  in
  let violation x = [| (2.0 *. x.(0)) -. 1.0; (2.0 *. x.(1)) -. 1.0 |] in
  match Mwu.run ~m:2 ~width:1.0 ~eps ~oracle ~violation () with
  | Mwu.Infeasible -> Alcotest.fail "expected feasible"
  | Mwu.Feasible sols ->
      let t = float_of_int (List.length sols) in
      let avg0 =
        List.fold_left (fun acc x -> acc +. x.(0)) 0.0 sols /. t
      in
      let avg1 =
        List.fold_left (fun acc x -> acc +. x.(1)) 0.0 sols /. t
      in
      (* Feasibility demands 2 x_i >= 1; MWU promises >= 1 - eps. *)
      Alcotest.(check bool) "avg covers c0" true ((2.0 *. avg0) >= 1.0 -. (2.0 *. eps));
      Alcotest.(check bool) "avg covers c1" true ((2.0 *. avg1) >= 1.0 -. (2.0 *. eps))

let test_mwu_eps_validation () =
  let oracle _ = Some () in
  let violation () = [| 0.0 |] in
  List.iter
    (fun eps ->
      Alcotest.check_raises
        (Printf.sprintf "eps = %g rejected" eps)
        (Invalid_argument "Mwu.run: eps must be in (0, 1]") (fun () ->
          ignore (Mwu.run ~m:1 ~width:1.0 ~eps ~oracle ~violation ())))
    [ 0.0; -0.5; 1.5; nan ]

(* Regression (delta clamp): with an underestimated width, one over-width
   "very satisfied" round used to drive a weight negative, clamp it to 0,
   and thereby delete the constraint from every later round — the oracle
   then never returns to it and the averaged solution violates it by ~1,
   far beyond eps. With delta clamped to [-1, 1] the weight merely
   shrinks, recovers, and the average honors the MWU guarantee. *)
let test_mwu_overwidth_recovery () =
  let eps = 0.5 in
  (* True slack of c0 under solution A is 9 >> width = 1. *)
  let viol = function
    | `A -> [| 9.0; -1.0 |]
    | `B -> [| -1.0; 1.0 |]
  in
  let oracle sigma = Some (if sigma.(0) >= sigma.(1) then `A else `B) in
  match Mwu.run ~m:2 ~width:1.0 ~eps ~rounds:100 ~oracle ~violation:viol ()
  with
  | Mwu.Infeasible -> Alcotest.fail "expected feasible"
  | Mwu.Feasible sols ->
      let t = float_of_int (List.length sols) in
      let avg i =
        List.fold_left (fun acc s -> acc +. (viol s).(i)) 0.0 sols /. t
      in
      Alcotest.(check bool) "c0 average satisfied up to eps" true
        (avg 0 >= -.eps);
      Alcotest.(check bool) "c1 average satisfied up to eps" true
        (avg 1 >= -.eps)

(* Regression (weight floor): a constraint that keeps being satisfied has
   its weight multiplied by (1 - eps/4) every round; without a positive
   floor the weight underflows to exactly 0.0 and can never regrow. The
   [on_weights] observer certifies strict positivity on every round. *)
let test_mwu_weight_floor () =
  let all_positive = ref true in
  let final = ref [||] in
  let oracle _ = Some () in
  (* Over-width on c0 every round (also re-checks the clamp path). *)
  let violation () = [| 1000.0; -1.0 |] in
  let on_weights w =
    final := w;
    if not (Array.for_all (fun x -> x > 0.0) w) then all_positive := false
  in
  (match
     Mwu.run ~m:2 ~width:1.0 ~eps:1.0 ~rounds:2000 ~oracle ~violation
       ~on_weights ()
   with
  | Mwu.Feasible _ -> ()
  | Mwu.Infeasible -> Alcotest.fail "expected feasible");
  Alcotest.(check bool) "weights strictly positive on every round" true
    !all_positive;
  (* 2000 rounds of (0.75 / 1.25) relative decay is deep below the
     underflow threshold; only the floor keeps the weight alive. *)
  Alcotest.(check bool) "suppressed weight pinned at the floor, not 0" true
    ((!final).(0) >= 1e-14)

let test_mwu_zero_constraints () =
  (* m = 0: a system with no constraints is trivially feasible — the
     oracle's first solution satisfies all zero of them. Pre-fix this
     raised [Invalid_argument "Mwu.run: m <= 0"]; the empty violation
     vector also sent [fold_left min infinity] -> infinity into the
     on_round width computation. *)
  let rounds_seen = ref [] in
  (match
     Mwu.run ~m:0 ~width:1.0 ~eps:0.5
       ~on_round:(fun ~round ~max_violation ->
         rounds_seen := (round, max_violation) :: !rounds_seen)
       ~oracle:(fun sigma ->
         Alcotest.(check int) "empty sigma" 0 (Array.length sigma);
         Some "sol")
       ~violation:(fun _ -> [||])
       ()
   with
  | Mwu.Feasible [ "sol" ] -> ()
  | Mwu.Feasible _ -> Alcotest.fail "expected exactly one oracle solution"
  | Mwu.Infeasible -> Alcotest.fail "m = 0 must be trivially feasible");
  (* The reported violation must be finite (no corrupt -infinity). *)
  List.iter
    (fun (_, mv) ->
      Alcotest.(check bool) "finite max_violation" true (Float.is_finite mv))
    !rounds_seen;
  (* An infeasibility certificate from the oracle still wins. *)
  match
    Mwu.run ~m:0 ~width:1.0 ~eps:0.5
      ~oracle:(fun _ -> None)
      ~violation:(fun () -> [||])
      ()
  with
  | Mwu.Infeasible -> ()
  | Mwu.Feasible _ -> Alcotest.fail "oracle None must certify infeasible"

(* Warm start: resuming from a prior run's final weights must (a) start
   the first round at those weights (renormalized), (b) behave exactly
   like a single longer run on a deterministic instance, and (c) floor a
   degenerate all-zero prior back to uniform. *)
let test_mwu_warm_weights () =
  let oracle sigma =
    if sigma.(0) >= sigma.(1) then Some [| 1.0; 0.0 |] else Some [| 0.0; 1.0 |]
  in
  let violation x = [| (2.0 *. x.(0)) -. 1.0; (2.0 *. x.(1)) -. 1.0 |] in
  let run ?warm_weights ~rounds () =
    let trace = ref [] in
    (match
       Mwu.run ~m:2 ~width:1.0 ~eps:0.5 ~rounds ?warm_weights ~oracle
         ~violation
         ~on_weights:(fun w -> trace := w :: !trace)
         ()
     with
    | Mwu.Feasible _ -> ()
    | Mwu.Infeasible -> Alcotest.fail "expected feasible");
    List.rev !trace
  in
  let full = run ~rounds:20 () in
  let head = run ~rounds:7 () in
  let mid = List.nth head 6 in
  let resumed = run ~warm_weights:mid ~rounds:13 () in
  (* Cold 20 rounds == 7 rounds, then 13 warm-started: bit-identical. *)
  let tail = List.filteri (fun i _ -> i >= 7) full in
  List.iter2
    (fun a b ->
      Alcotest.(check (array (float 0.0))) "resume = one long run" a b)
    tail resumed;
  (* Degenerate prior: the floor rescues it into uniform. *)
  (match run ~warm_weights:[| 0.0; 0.0 |] ~rounds:1 () with
  | [ w ] | w :: _ ->
      Alcotest.(check bool) "zero prior renormalizes" true
        (Array.for_all (fun x -> x > 0.0) w)
  | [] -> Alcotest.fail "no rounds ran");
  (* Validation: wrong length and non-finite entries are rejected. *)
  let dummy_oracle _ = Some () in
  let dummy_violation () = [| 0.0; 0.0 |] in
  Alcotest.check_raises "warm_weights length"
    (Invalid_argument "Mwu.run: warm_weights length") (fun () ->
      ignore
        (Mwu.run ~m:2 ~width:1.0 ~eps:0.5 ~warm_weights:[| 1.0 |]
           ~oracle:dummy_oracle ~violation:dummy_violation ()));
  Alcotest.check_raises "warm_weights finite"
    (Invalid_argument "Mwu.run: warm_weights must be finite and >= 0")
    (fun () ->
      ignore
        (Mwu.run ~m:2 ~width:1.0 ~eps:0.5 ~warm_weights:[| nan; 1.0 |]
           ~oracle:dummy_oracle ~violation:dummy_violation ()))

let test_mwu_default_rounds () =
  Alcotest.(check bool) "rounds grow with width" true
    (Mwu.default_rounds ~m:100 ~width:10.0 ~eps:0.3
    > Mwu.default_rounds ~m:100 ~width:1.0 ~eps:0.3)

(* A round's own allocation must not depend on observability: with a
   preallocated oracle, the words a round allocates (the difference
   between two run lengths, so set-up cancels) are the same with
   CSO_OBS on and off. The violated-constraint count that only
   observability reads must not box the violation vector's floats. *)
let test_mwu_round_alloc_obs_independent () =
  let m = 300 in
  let v = Array.init m (fun i -> if i mod 3 = 0 then -0.5 else 0.25) in
  let sol = Some () in
  let oracle _ = sol and violation () = v in
  let words rounds =
    let before = Gc.minor_words () in
    ignore (Mwu.run ~m ~width:2.0 ~eps:0.5 ~rounds ~oracle ~violation ());
    Gc.minor_words () -. before
  in
  let per_round obs =
    let module Obs = Cso_obs.Obs in
    let was = Obs.enabled () in
    Obs.set_enabled obs;
    Fun.protect ~finally:(fun () -> Obs.set_enabled was) (fun () ->
        ignore (words 5);
        (words 60 -. words 20) /. 40.0)
  in
  let on = per_round true and off = per_round false in
  Alcotest.(check (float 0.0)) "minor words per round, CSO_OBS on = off" off on

let suite =
  [
    Alcotest.test_case "simplex known optimum" `Quick test_simplex_known_optimum;
    Alcotest.test_case "simplex binding box" `Quick test_simplex_binding_box;
    Alcotest.test_case "simplex infeasible" `Quick test_simplex_infeasible;
    Alcotest.test_case "simplex equality" `Quick test_simplex_equality;
    Alcotest.test_case "simplex lower bounds" `Quick test_simplex_lower_bounds;
    Alcotest.test_case "simplex validation" `Quick test_simplex_validation;
    Alcotest.test_case "simplex rejects nan" `Quick test_simplex_rejects_nan;
    Alcotest.test_case "simplex infinite upper bound" `Quick
      test_simplex_infinite_upper_bound;
    QCheck_alcotest.to_alcotest prop_simplex_solutions_feasible;
    QCheck_alcotest.to_alcotest prop_simplex_matches_grid;
    Alcotest.test_case "mwu feasible toy" `Quick test_mwu_feasible_toy;
    Alcotest.test_case "mwu infeasible toy" `Quick test_mwu_infeasible_toy;
    Alcotest.test_case "mwu averaging converges" `Quick
      test_mwu_averaging_converges;
    Alcotest.test_case "mwu default rounds" `Quick test_mwu_default_rounds;
    Alcotest.test_case "mwu zero constraints" `Quick test_mwu_zero_constraints;
    Alcotest.test_case "mwu eps validation" `Quick test_mwu_eps_validation;
    Alcotest.test_case "mwu over-width recovery (delta clamp)" `Quick
      test_mwu_overwidth_recovery;
    Alcotest.test_case "mwu weight floor" `Quick test_mwu_weight_floor;
    Alcotest.test_case "mwu warm weights" `Quick test_mwu_warm_weights;
    Alcotest.test_case "mwu round allocation independent of CSO_OBS" `Quick
      test_mwu_round_alloc_obs_independent;
  ]
