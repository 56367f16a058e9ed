type t = { mutable words : int array; cap : int }

let words_for cap = (cap + 62) / 63

let create cap =
  if cap < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make (words_for cap) 0; cap }

let capacity t = t.cap

let copy t = { words = Array.copy t.words; cap = t.cap }

let check t i =
  if i < 0 || i >= t.cap then invalid_arg "Bitset: index out of range"

let set t i =
  check t i;
  t.words.(i / 63) <- t.words.(i / 63) lor (1 lsl (i mod 63))

let clear t i =
  check t i;
  t.words.(i / 63) <- t.words.(i / 63) land lnot (1 lsl (i mod 63))

let get t i =
  check t i;
  t.words.(i / 63) land (1 lsl (i mod 63)) <> 0

let union_into ~dst src =
  if dst.cap <> src.cap then invalid_arg "Bitset.union_into: capacity mismatch";
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done

let union_into_changed ~dst src =
  if dst.cap <> src.cap then
    invalid_arg "Bitset.union_into_changed: capacity mismatch";
  let changed = ref false in
  for w = 0 to Array.length dst.words - 1 do
    let old = dst.words.(w) in
    let v = old lor src.words.(w) in
    if v <> old then begin
      dst.words.(w) <- v;
      changed := true
    end
  done;
  !changed

let copy_into ~dst src =
  if dst.cap <> src.cap then invalid_arg "Bitset.copy_into: capacity mismatch";
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let inter_into ~dst src =
  if dst.cap <> src.cap then invalid_arg "Bitset.inter_into: capacity mismatch";
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land src.words.(w)
  done

(* The word-wise predicates below stop at the first word that decides
   the answer instead of scanning the whole row. *)
let intersects a b =
  if a.cap <> b.cap then invalid_arg "Bitset.intersects: capacity mismatch";
  let n = Array.length a.words and w = ref 0 in
  while !w < n && a.words.(!w) land b.words.(!w) = 0 do
    incr w
  done;
  !w < n

let equal a b =
  a.cap = b.cap
  &&
  let n = Array.length a.words and w = ref 0 in
  while !w < n && a.words.(!w) = b.words.(!w) do
    incr w
  done;
  !w = n

(* FNV-1a-style word mix; agrees with [equal] (capacity + word contents). *)
let hash t =
  let h = ref (t.cap * 0x01000193) in
  for w = 0 to Array.length t.words - 1 do
    let x = t.words.(w) in
    h := (!h lxor (x land 0x3FFFFFFF)) * 0x01000193;
    h := (!h lxor (x lsr 30)) * 0x01000193
  done;
  !h land max_int

let is_subset a b =
  if a.cap <> b.cap then invalid_arg "Bitset.is_subset: capacity mismatch";
  let n = Array.length a.words and w = ref 0 in
  while !w < n && a.words.(!w) land lnot b.words.(!w) = 0 do
    incr w
  done;
  !w = n

let is_subset_masked ~mask a b =
  if a.cap <> b.cap || a.cap <> mask.cap then
    invalid_arg "Bitset.is_subset_masked: capacity mismatch";
  let n = Array.length a.words and w = ref 0 in
  while !w < n && a.words.(!w) land mask.words.(!w) land lnot b.words.(!w) = 0 do
    incr w
  done;
  !w = n

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t =
  let n = Array.length t.words and w = ref 0 in
  while !w < n && t.words.(!w) = 0 do
    incr w
  done;
  !w = n

(* Index of the single set bit of [b], a power of two (the sign bit
   included): multiplying by a de Bruijn constant shifts a distinct 6-bit
   window of it into the top bits of the 63-bit word. *)
let debruijn = 0x03f79d71b4cb0a89

let bit_of_window =
  let t = Array.make 64 0 in
  for k = 0 to 62 do
    t.(((1 lsl k) * debruijn) lsr 57) <- k
  done;
  t

let bit_index b = bit_of_window.((b * debruijn) lsr 57)

(* [x land (-x)] isolates the lowest set bit of a word, so the walks below
   jump from one element to the next instead of testing all 63 bits. *)
let min_elt t =
  let n = Array.length t.words and w = ref 0 in
  while !w < n && t.words.(!w) = 0 do
    incr w
  done;
  if !w = n then None
  else
    let x = t.words.(!w) in
    Some ((!w * 63) + bit_index (x land -x))

(* The walk starts at [from]'s word, with the bits below [from] masked
   off, and stops at the first word of [a] with a bit [b] lacks. *)
let min_diff ~from a b =
  if a.cap <> b.cap then invalid_arg "Bitset.min_diff: capacity mismatch";
  if from < 0 then invalid_arg "Bitset.min_diff: negative start";
  if from >= a.cap then None
  else
    let n = Array.length a.words and w = ref (from / 63) in
    let x = ref (a.words.(!w) land lnot b.words.(!w) land (-1 lsl (from mod 63))) in
    while !x = 0 && !w < n - 1 do
      incr w;
      x := a.words.(!w) land lnot b.words.(!w)
    done;
    if !x = 0 then None else Some ((!w * 63) + bit_index (!x land - !x))

let iter t f =
  for w = 0 to Array.length t.words - 1 do
    let x = ref t.words.(w) in
    while !x <> 0 do
      let low = !x land - !x in
      f ((w * 63) + bit_index low);
      x := !x lxor low
    done
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun i -> acc := f !acc i);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc i -> i :: acc))

exception Found of int

let find_first t p =
  try
    iter t (fun i -> if p i then raise_notrace (Found i));
    None
  with Found i -> Some i

let exists t p = Option.is_some (find_first t p)

let for_all t p = not (exists t (fun i -> not (p i)))
