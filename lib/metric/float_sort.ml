(* A transcription of stdlib [Array.sort] (OCaml 5.1 array.ml: ternary
   heap sort with [maxson], [trickle], [bubble] and [trickleup]) in
   which the array element is a float key, optionally with an int id
   carried beside it. Every comparison and every move happens in the
   same order as in [Array.sort] on the same input, so the result is
   its exact permutation, ties included. The recursive helpers and the
   [Bottom] exception become loops and a [-1] return; the element being
   sifted lives in local refs, so no float is boxed on the way.

   [desc] flips the comparator: the descending sort is [Array.sort]
   under [fun a b -> Float.compare b a]. *)

(* [Float.compare x y < 0]: nan below every other float and equal to
   itself, [-0.] equal to [0.]. *)
let[@inline] lt (x : float) y = x < y || (x <> x && y = y)

(* [cmp x y < 0] for the sort's comparator. [cmp x y > 0] is
   [before desc y x]. *)
let[@inline] before desc x y = if desc then lt y x else lt x y

(* The array types are spelled out: on an unannotated ['a array] the
   compiler would box every float it moves. *)
let[@inline] move with_ids (keys : float array) (ids : int array) ~src ~dst =
  Array.unsafe_set keys dst (Array.unsafe_get keys src);
  if with_ids then Array.unsafe_set ids dst (Array.unsafe_get ids src)

let[@inline] put with_ids (keys : float array) (ids : int array) i (k : float)
    id =
  Array.unsafe_set keys i k;
  if with_ids then Array.unsafe_set ids i id

(* The son of [i] whose key sorts last under the comparator, or [-1]
   where [Array.sort] raises [Bottom i]. *)
let maxson desc (keys : float array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x =
      if
        before desc (Array.unsafe_get keys i31)
          (Array.unsafe_get keys (i31 + 1))
      then i31 + 1
      else i31
    in
    if before desc (Array.unsafe_get keys x) (Array.unsafe_get keys (i31 + 2))
    then i31 + 2
    else x
  end
  else if
    i31 + 1 < l
    && before desc (Array.unsafe_get keys i31) (Array.unsafe_get keys (i31 + 1))
  then i31 + 1
  else if i31 < l then i31
  else -1

let sort ~desc ~with_ids (keys : float array) (ids : int array) l =
  if l < 0 || l > Array.length keys || (with_ids && l > Array.length ids) then
    invalid_arg "Float_sort: length out of range";
  (* The element being sifted. Held in refs no closure captures, so the
     float stays unboxed. *)
  let ek = ref 0.0 and ei = ref 0 in
  (* Heapify: [trickle l i (get a i)] for each internal node. *)
  for i0 = ((l + 1) / 3) - 1 downto 0 do
    ek := Array.unsafe_get keys i0;
    if with_ids then ei := Array.unsafe_get ids i0;
    let i = ref i0 and go = ref true in
    while !go do
      let j = maxson desc keys l !i in
      if j >= 0 && before desc !ek (Array.unsafe_get keys j) then begin
        move with_ids keys ids ~src:j ~dst:!i;
        i := j
      end
      else begin
        put with_ids keys ids !i !ek !ei;
        go := false
      end
    done
  done;
  for n = l - 1 downto 2 do
    ek := Array.unsafe_get keys n;
    if with_ids then ei := Array.unsafe_get ids n;
    move with_ids keys ids ~src:0 ~dst:n;
    (* [bubble n 0]: pull the larger son up to the bottom. *)
    let i = ref 0 and go = ref true in
    while !go do
      let j = maxson desc keys n !i in
      if j < 0 then go := false
      else begin
        move with_ids keys ids ~src:j ~dst:!i;
        i := j
      end
    done;
    (* [trickleup i e]. *)
    let go = ref true in
    while !go do
      let father = (!i - 1) / 3 in
      if before desc (Array.unsafe_get keys father) !ek then begin
        move with_ids keys ids ~src:father ~dst:!i;
        if father > 0 then i := father
        else begin
          put with_ids keys ids 0 !ek !ei;
          go := false
        end
      end
      else begin
        put with_ids keys ids !i !ek !ei;
        go := false
      end
    done
  done;
  if l > 1 then begin
    ek := Array.unsafe_get keys 1;
    if with_ids then ei := Array.unsafe_get ids 1;
    move with_ids keys ids ~src:0 ~dst:1;
    put with_ids keys ids 0 !ek !ei
  end

let floats a len = sort ~desc:false ~with_ids:false a [||] len
let ids_by_key keys ids len = sort ~desc:false ~with_ids:true keys ids len
let ids_by_key_desc keys ids len = sort ~desc:true ~with_ids:true keys ids len

(* --- [sort_uniq]: any exact sort where the order of ties is invisible ---

   Without nan and [-0.], two floats that compare equal have the same
   bits, so every sort leaves the same bits, and the heap sort's order
   among ties cannot show. The prefix is then sorted by an introsort:
   median-of-three quicksort with a Hoare partition (which splits runs
   of equal keys in the middle), insertion sort below [small] elements,
   and, past a depth of 2 log2 n, a restart with the heap sort, so the
   worst case stays O(n log n). Every comparison is a float [<] on
   unboxed reads. *)

let small = 16

exception Too_deep

let[@inline] swap (a : float array) i j =
  let t = Array.unsafe_get a i in
  Array.unsafe_set a i (Array.unsafe_get a j);
  Array.unsafe_set a j t

let insertion (a : float array) lo hi =
  for i = lo + 1 to hi do
    let x = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && Array.unsafe_get a !j > x do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x
  done

(* Sorts [a.(lo .. hi)], inclusive. Recurses into the smaller side and
   loops on the larger, so the stack stays O(log n). *)
let rec quick (a : float array) lo hi depth =
  let lo = ref lo and hi = ref hi and depth = ref depth in
  while !hi - !lo >= small do
    if !depth = 0 then raise_notrace Too_deep;
    decr depth;
    let l = !lo and h = !hi in
    let m = l + ((h - l) / 2) in
    if Array.unsafe_get a m < Array.unsafe_get a l then swap a m l;
    if Array.unsafe_get a h < Array.unsafe_get a l then swap a h l;
    if Array.unsafe_get a h < Array.unsafe_get a m then swap a h m;
    (* a.(l) <= p <= a.(h): both scans stop inside [l, h]. *)
    let p = Array.unsafe_get a m in
    let i = ref l and j = ref h in
    while !i <= !j do
      while Array.unsafe_get a !i < p do incr i done;
      while p < Array.unsafe_get a !j do decr j done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    (* [l .. j] <= p <= [i .. h] *)
    if !j - l < h - !i then begin
      quick a l !j !depth;
      lo := !i
    end
    else begin
      quick a !i h !depth;
      hi := !j
    end
  done;
  insertion a !lo !hi

(* [x] is nan or [-0.]. *)
let[@inline] special (x : float) = x <> x || (x = 0.0 && 1.0 /. x < 0.0)

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let sort_uniq (a : float array) len =
  if len < 0 || len > Array.length a then
    invalid_arg "Float_sort: length out of range";
  let exact = ref false and i = ref 0 in
  while (not !exact) && !i < len do
    exact := special (Array.unsafe_get a !i);
    incr i
  done;
  (if !exact then floats a len
   else try quick a 0 (len - 1) (2 * log2 len) with Too_deep -> floats a len);
  (* In place: keep the first of each run of [=]-equal values (every
     nan stays, since nan <> nan). *)
  let out = ref 0 in
  for i = 0 to len - 1 do
    let x = Array.unsafe_get a i in
    if !out = 0 || not (Array.unsafe_get a (!out - 1) = x) then begin
      Array.unsafe_set a !out x;
      incr out
    end
  done;
  !out
