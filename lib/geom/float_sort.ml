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
