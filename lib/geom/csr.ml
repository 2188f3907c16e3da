(* Compressed-sparse-row view of an [int list array].

   The GCSO oracle walks per-constraint canonical-node lists thousands
   of times (every MWU round re-reads every list); as boxed lists those
   walks chase a pointer per element. Flattening once into two int
   arrays turns every later sweep into contiguous array reads. Row
   order and within-row element order are exactly the source list
   order, so a fold over a CSR row produces the same value sequence —
   and therefore the same float accumulation — as [List.fold_left] over
   the original list. *)

type t = {
  offsets : int array;
  ids : int array;
}

let of_lists rows =
  let m = Array.length rows in
  let offsets = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    offsets.(i + 1) <- offsets.(i) + List.length rows.(i)
  done;
  let ids = Array.make offsets.(m) 0 in
  for i = 0 to m - 1 do
    let e = ref offsets.(i) in
    List.iter
      (fun x ->
        ids.(!e) <- x;
        incr e)
      rows.(i)
  done;
  { offsets; ids }

(* Counting sort by column: one pass sizes the columns, one pass fills
   them, visiting rows in ascending order so each column row lists its
   source rows ascending (with repeats for repeated entries). *)
let transpose t ~cols =
  let offsets = Array.make (cols + 1) 0 in
  Array.iter (fun c -> offsets.(c + 1) <- offsets.(c + 1) + 1) t.ids;
  for c = 0 to cols - 1 do
    offsets.(c + 1) <- offsets.(c + 1) + offsets.(c)
  done;
  let next = Array.sub offsets 0 cols in
  let ids = Array.make (Array.length t.ids) 0 in
  for i = 0 to Array.length t.offsets - 2 do
    for e = t.offsets.(i) to t.offsets.(i + 1) - 1 do
      let c = t.ids.(e) in
      ids.(next.(c)) <- i;
      next.(c) <- next.(c) + 1
    done
  done;
  { offsets; ids }

let rows t = Array.length t.offsets - 1
