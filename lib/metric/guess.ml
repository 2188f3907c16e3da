(* The last [Some] seen is the answer: after a [Some] at [mid] the
   bracket keeps only the indices past [mid] in the search's direction,
   so each accepted index improves on the one before. *)
let search ~down n probe =
  let rec go lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      match probe mid with
      | Some v when down -> go lo (mid - 1) (Some (mid, v))
      | Some v -> go (mid + 1) hi (Some (mid, v))
      | None when down -> go (mid + 1) hi best
      | None -> go lo (mid - 1) best
  in
  go 0 (n - 1) None

let lowest n probe = search ~down:true n probe
let highest n probe = search ~down:false n probe
