module Pool = Cso_parallel.Pool
module Obs = Cso_obs.Obs

(* Rounds actually executed, oracle invocations (one per round unless
   the oracle declares infeasibility), and violation entries clamped at
   |delta| = 1. A nonzero clamp count flags a caller whose [width]
   underestimates the true oracle width. *)
let c_rounds = Obs.counter "lp.mwu.rounds"
let c_oracle = Obs.counter "lp.mwu.oracle_calls"
let c_clamped = Obs.counter "lp.mwu.clamped"

(* How many constraints the oracle's round-t solution violates: the
   distribution should drift toward low buckets as the weights
   concentrate on hard constraints. *)
let h_violated = Obs.Hist.hist "lp.mwu.violated_per_round"

let budgets =
  [
    {
      Obs.Budget.b_name = "lp.mwu.rounds";
      b_expected = 0.0;
      b_tolerance = 0.05;
      b_doc =
        "Thm 3.1: MWU runs O(xi log m / eps^2) rounds. At the fixed round \
         budget used by the bench kernels the executed-round count is \
         independent of n, so the fitted exponent must be ~0 exactly.";
    };
  ]

type 'a outcome =
  | Feasible of 'a list
  | Infeasible

let default_rounds ~m ~width ~eps =
  let t = 4.0 *. width *. log (float_of_int (max 2 m)) /. (eps *. eps) in
  max 1 (int_of_float (ceil t))

(* Weights are floored at [min_weight_factor / m] rather than 0: a weight
   that ever reaches exactly 0 can never recover (both the multiplicative
   update and the renormalization preserve 0), which silently deletes the
   constraint from every later round. The floor keeps the weight small
   enough to be irrelevant to the aggregation yet able to regrow
   geometrically once its constraint starts being violated. *)
let min_weight_factor = 1e-12

let run ~m ~width ~eps ?rounds ?warm_weights ?on_round ?on_weights ~oracle
    ~violation () =
  if m < 0 then invalid_arg "Mwu.run: m < 0";
  if not (eps > 0.0 && eps <= 1.0) then
    invalid_arg "Mwu.run: eps must be in (0, 1]";
  if Option.fold ~none:false ~some:(fun r -> r < 1) rounds then
    invalid_arg "Mwu.run: rounds < 1";
  (match warm_weights with
  | None -> ()
  | Some w ->
      if Array.length w <> m then invalid_arg "Mwu.run: warm_weights length";
      Array.iter
        (fun x ->
          if not (Float.is_finite x) || x < 0.0 then
            invalid_arg "Mwu.run: warm_weights must be finite and >= 0")
        w);
  if m = 0 then
    (* A system with no constraints: whatever the oracle produces for the
       (empty) aggregated constraint satisfies all zero of them, so one
       oracle call decides the outcome. Without this early return the
       empty violation vector would turn [fold_left min infinity] into
       [infinity] and feed a corrupt [-infinity] max-violation to
       [on_round] (and [Array.make 0] weights into the update loop). *)
    Obs.with_span "mwu.run" (fun () ->
        Obs.incr c_rounds;
        Obs.incr c_oracle;
        match oracle [||] with
        | None -> Infeasible
        | Some sol ->
            let v = violation sol in
            if Array.length v <> 0 then invalid_arg "Mwu.run: violation length";
            if Obs.enabled () then Obs.Hist.observe h_violated 0;
            (match on_round with
            | None -> ()
            | Some f -> f ~round:1 ~max_violation:0.0);
            (match on_weights with None -> () | Some f -> f [||]);
            Feasible [ sol ])
  else begin
  let rounds =
    match rounds with Some r -> r | None -> default_rounds ~m ~width ~eps
  in
  let floor_w = min_weight_factor /. float_of_int m in
  let pool = Pool.get_default () in
  (* Warm start: prior weights, floored (per the zero-weight trap above)
     and renormalized into a probability vector. A degenerate prior
     (all ~0) renormalizes to uniform via the floor. *)
  let sigma =
    match warm_weights with
    | None -> Array.make m (1.0 /. float_of_int m)
    | Some w ->
        let s = Array.map (fun x -> if x < floor_w then floor_w else x) w in
        let total = Array.fold_left ( +. ) 0.0 s in
        Array.map (fun x -> x /. total) s
  in
  let sols = ref [] in
  let rec go t =
    if t > rounds then Feasible (List.rev !sols)
    else begin
      Obs.incr c_rounds;
      Obs.incr c_oracle;
      match oracle sigma with
      | None -> Infeasible
      | Some sol ->
          sols := sol :: !sols;
          let v = violation sol in
          if Array.length v <> m then invalid_arg "Mwu.run: violation length";
          if Obs.enabled () then begin
            (* Sequential count so the bucket vector is deterministic. A
               [for] loop reads each float unboxed; [Array.iter] with a
               closure would box every element. *)
            let violated = ref 0 in
            for i = 0 to m - 1 do
              if Array.unsafe_get v i < 0.0 then incr violated
            done;
            Obs.Hist.observe h_violated !violated
          end;
          (match on_round with
          | None -> ()
          | Some f ->
              let worst = Array.fold_left min infinity v in
              f ~round:t ~max_violation:(-.worst));
          (* Per-constraint updates are independent; the normalizing sum
             stays sequential so the result is bit-identical for every
             pool size. [delta] is clamped to [-1, 1]: the xi-ORACLE
             condition promises violations in [-1, width], but callers
             that underestimate [width] would otherwise produce update
             factors outside [1 - eps/4, 1 + eps/4] and void the MWU
             convergence guarantee. *)
          Pool.parallel_for pool ~start:0 ~finish:(m - 1) (fun i ->
              let delta = v.(i) /. width in
              let delta =
                if delta > 1.0 then begin
                  Obs.incr c_clamped;
                  1.0
                end
                else if delta < -1.0 then begin
                  Obs.incr c_clamped;
                  -1.0
                end
                else delta
              in
              let s = sigma.(i) *. (1.0 -. (eps /. 4.0 *. delta)) in
              sigma.(i) <- (if s < floor_w then floor_w else s));
          let total = ref 0.0 in
          for i = 0 to m - 1 do
            total := !total +. sigma.(i)
          done;
          (* Renormalize to keep sigma a probability vector. The total is
             always positive thanks to the floor; the fallback only
             guards against NaN poisoning from a pathological oracle. *)
          if !total > 0.0 then begin
            let total = !total in
            Pool.parallel_for pool ~start:0 ~finish:(m - 1) (fun i ->
                sigma.(i) <- sigma.(i) /. total)
          end
          else Array.fill sigma 0 m (1.0 /. float_of_int m);
          (match on_weights with
          | None -> ()
          | Some f -> f (Array.copy sigma));
          go (t + 1)
    end
  in
    Obs.with_span "mwu.run" (fun () -> go 1)
  end
