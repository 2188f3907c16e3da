module Instance = Cso_core.Instance
module Geo_instance = Cso_core.Geo_instance

type params = { k : int; z : int; f : int; g : int; eps : float }
type bound = { mu1 : float; mu2 : float; mu3 : float option }

type row = {
  id : string;
  problem : string;
  theorem : string;
  guarantee : string;
  bound : (params -> bound) option;
}

let hardness =
  { id = "T1.R1"; problem = "CSO lower bound"; theorem = "Lemma 2.1";
    guarantee = "(1, f-z, gamma) impossible"; bound = None }

let cso_general =
  { id = "T1.R2"; problem = "CSO, f>1"; theorem = "Thm 2.4";
    guarantee = "(2, 2f, 2)";
    bound =
      Some (fun p ->
          { mu1 = 2.0; mu2 = 2.0 *. float_of_int p.f; mu3 = Some 2.0 }) }

let cso_disjoint =
  { id = "T1.R3"; problem = "CSO, f=1"; theorem = "Thm 2.6";
    guarantee = "(2, 2, 30)";
    bound = Some (fun _ -> { mu1 = 2.0; mu2 = 2.0; mu3 = Some 30.0 }) }

let gcso_general =
  { id = "T1.R4"; problem = "GCSO, f>1"; theorem = "Thm 3.2";
    guarantee = "(2+eps, 2f, 2+eps)";
    bound =
      Some (fun p ->
          { mu1 = 2.0 +. p.eps; mu2 = 2.0 *. float_of_int p.f;
            mu3 = Some (2.0 +. p.eps) }) }

(* The paper's O(1) is the constant derived in gcso_disjoint.mli. *)
let gcso_disjoint =
  { id = "T1.R5"; problem = "GCSO, f=1"; theorem = "Thm 3.3";
    guarantee = "(2+eps, 2, (1+eps)(34+30eps))";
    bound =
      Some (fun p ->
          { mu1 = 2.0 +. p.eps; mu2 = 2.0;
            mu3 = Some ((1.0 +. p.eps) *. (34.0 +. (30.0 *. p.eps))) }) }

let rcto1 =
  { id = "T1.R6"; problem = "RCTO1"; theorem = "Thm 4.3";
    guarantee = "(2+eps, 2, O(1))";
    bound = Some (fun p -> { mu1 = 2.0 +. p.eps; mu2 = 2.0; mu3 = None }) }

let rcto =
  { id = "T1.R7"; problem = "RCTO"; theorem = "Thm 4.4";
    guarantee = "(1, g, O(1)) whp";
    bound = Some (fun p -> { mu1 = 1.0; mu2 = float_of_int p.g; mu3 = None }) }

let rcro =
  { id = "T1.R8"; problem = "RCRO"; theorem = "Thm E.3";
    guarantee = "(1, (1+eps)^2, 3+eps) whp";
    bound =
      Some (fun p ->
          { mu1 = 1.0; mu2 = (1.0 +. p.eps) *. (1.0 +. p.eps);
            mu3 = Some (3.0 +. p.eps) }) }

let rows =
  [ hardness; cso_general; cso_disjoint; gcso_general; gcso_disjoint; rcto1;
    rcto; rcro ]

type measurement = {
  valid : bool;
  centers : int;
  outliers : int;
  cost : float;
  opt : float option;
}

let measure ~valid ~cost ?opt (sol : Instance.solution) =
  { valid; centers = List.length sol.Instance.centers;
    outliers = List.length sol.Instance.outliers; cost; opt }

let of_cso ?opt (t : Instance.t) sol =
  ( { k = t.Instance.k; z = t.Instance.z; f = Instance.frequency t; g = 1;
      eps = 0.0 },
    measure ~valid:(Instance.is_valid t sol) ~cost:(Instance.cost t sol) ?opt
      sol )

let of_gcso ~eps ?opt (g : Geo_instance.t) sol =
  ( { k = g.Geo_instance.k; z = g.Geo_instance.z;
      f = Geo_instance.frequency g; g = 1; eps },
    measure ~valid:(Geo_instance.is_valid g sol)
      ~cost:(Geo_instance.cost g sol) ?opt sol )

type criterion = Valid | Outliers | Centers | Cost

let verdict row p m =
  let fail c fmt = Printf.ksprintf (fun s -> Error (c, row.id ^ ": " ^ s)) fmt in
  match row.bound with
  | _ when not m.valid -> fail Valid "invalid solution"
  | None -> Ok ()
  | Some bound -> (
      let b = bound p in
      let max_outliers = b.mu2 *. float_of_int p.z in
      let max_centers = b.mu1 *. float_of_int p.k in
      if float_of_int m.outliers > max_outliers +. 1e-9 then
        fail Outliers "%d outliers > mu2*z = %g" m.outliers max_outliers
      else if float_of_int m.centers > max_centers +. 1e-9 then
        fail Centers "%d centers > mu1*k = %g" m.centers max_centers
      else
        match (b.mu3, m.opt) with
        | Some mu3, Some opt when m.cost > mu3 *. opt ->
            fail Cost "cost %.17g > mu3*opt = %g*%.17g" m.cost mu3 opt
        | _ -> Ok ())
