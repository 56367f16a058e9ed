open Haec_util
open Haec_model
open Haec_spec

type report = {
  read_your_writes : (unit, string) result;
  monotonic_reads : (unit, string) result;
  monotonic_writes : (unit, string) result;
  writes_follow_reads : (unit, string) result;
}

(* Each guarantee is one pass of word-parallel row tests over the
   visibility rows [rows.(j) = {i | i vis j}] and their transpose
   [seen.(i) = {j | i vis j}]. A pass finds the outer index of the first
   violation in the order the definition's quantifiers are nested (the
   order a literal scan would meet it); only that index's candidates are
   then scanned, with {!Bitset.min_diff} naming the least witness. So a
   failing history costs about what a passing one does. Nothing below
   assumes visibility respects H order: an execution built with
   [Abstract.create_unchecked] may see later events, which is why the
   [e > w] bounds are explicit. *)

let build_seen a =
  let len = Abstract.length a in
  let seen = Array.init len (fun _ -> Bitset.create len) in
  for e = 0 to len - 1 do
    Bitset.iter (Abstract.vis_row a e) (fun i -> Bitset.set seen.(i) e)
  done;
  seen

(* [(i, x)] for the least [i >= lo] with [f i = Some x]; the caller has
   established that one exists. *)
let rec first_from lo f = match f lo with Some x -> (lo, x) | None -> first_from (lo + 1) f

(* RYW: for update [w], then later [e] on [w]'s replica and object, [w]
   must be visible to [e]. Walking H with each (replica, object)'s own
   updates so far, the updates [e] misses are [own \ rows(e)]; the least
   [w] over all [e] is the first violation, then its least [e]. *)
let read_your_writes a is_upd =
  let len = Abstract.length a in
  let key e =
    let d = Abstract.event a e in
    (d.Event.replica, d.Event.obj)
  in
  let own : (int * int, Bitset.t) Hashtbl.t = Hashtbl.create 16 in
  let first = ref len in
  for e = 0 to len - 1 do
    let k = key e in
    (match Hashtbl.find_opt own k with
    | Some s ->
      Option.iter
        (fun w -> first := min !first w)
        (Bitset.min_diff ~from:0 s (Abstract.vis_row a e))
    | None -> ());
    if is_upd.(e) then begin
      if not (Hashtbl.mem own k) then Hashtbl.add own k (Bitset.create len);
      Bitset.set (Hashtbl.find own k) e
    end
  done;
  if !first = len then Ok ()
  else
    let w = !first in
    let e, () =
      first_from (w + 1) (fun e ->
          if key e = key w && not (Abstract.vis a w e) then Some () else None)
    in
    Error (Printf.sprintf "own update %d invisible to later event %d" w e)

(* MR: for [e], then later [e'] at [e]'s replica, then [w] in
   [vis_preds e], [w] must stay visible to [e']. [e] fails iff its row is
   not inside the intersection of its replica's later rows, which a
   backward pass keeps per replica; the last failure it meets is the
   least [e]. *)
let monotonic_reads a =
  let len = Abstract.length a in
  let rep e = (Abstract.event a e).Event.replica in
  let later : (int, Bitset.t) Hashtbl.t = Hashtbl.create 8 in
  let first = ref len in
  for e = len - 1 downto 0 do
    let row = Abstract.vis_row a e in
    match Hashtbl.find_opt later (rep e) with
    | Some s ->
      if Bitset.min_diff ~from:0 row s <> None then first := e;
      Bitset.inter_into ~dst:s row
    | None -> Hashtbl.add later (rep e) (Bitset.copy row)
  done;
  if !first = len then Ok ()
  else
    let e = !first in
    let row = Abstract.vis_row a e in
    let e', w =
      first_from (e + 1) (fun e' ->
          if rep e' <> rep e then None
          else Bitset.min_diff ~from:0 row (Abstract.vis_row a e'))
    in
    Error (Printf.sprintf "update %d visible to %d but not to later %d" w e e')

(* MW: for update [w], then an earlier update [w'] of [w]'s issuer, then
   [e > w], [w] visible to [e] must imply [w'] visible to [e]: [seen(w)]
   above [w] inside [seen(w')]. Testing only each update against its
   issuer's previous one finds the same least [w]: if every such test up
   to [w] passes, [seen(w)] above [w] lies in [seen(w')] above [w'] for
   each earlier [w'] in turn, and a failing test is itself a violation.
   Then the least [w'], and the least [e] of its difference. *)
let monotonic_writes a is_upd seen =
  let len = Abstract.length a in
  let rep e = (Abstract.event a e).Event.replica in
  let prev : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let rec find w =
    if w >= len then Ok ()
    else if not is_upd.(w) then find (w + 1)
    else
      let p = Hashtbl.find_opt prev (rep w) in
      Hashtbl.replace prev (rep w) w;
      match p with
      | Some p when Bitset.min_diff ~from:(w + 1) seen.(w) seen.(p) <> None ->
        let w', e =
          first_from 0 (fun w' ->
              if is_upd.(w') && rep w' = rep w then
                Bitset.min_diff ~from:(w + 1) seen.(w) seen.(w')
              else None)
        in
        Error
          (Printf.sprintf
             "update %d visible to %d without the issuer's earlier update %d" w e w')
      | Some _ | None -> find (w + 1)
  in
  find 0

(* WFR: for update [w], then update [w'] in [vis_preds w], then [e > w],
   [w] visible to [e] must imply [w'] visible to [e]. One subset test per
   (w, w') pair in that order; the first failing pair's difference above
   [w] gives the least [e]. *)
let writes_follow_reads a is_upd seen =
  let exception Found of int * int * int in
  try
    for w = 0 to Abstract.length a - 1 do
      if is_upd.(w) then
        Bitset.iter (Abstract.vis_row a w) (fun w' ->
            if is_upd.(w') then
              match Bitset.min_diff ~from:(w + 1) seen.(w) seen.(w') with
              | Some e -> raise_notrace (Found (w, e, w'))
              | None -> ())
    done;
    Ok ()
  with Found (w, e, w') ->
    Error
      (Printf.sprintf "update %d visible to %d without its observed predecessor %d" w e w')

let check a =
  let is_upd =
    Array.init (Abstract.length a) (fun i -> Op.is_update (Abstract.event a i).Event.op)
  in
  let seen = build_seen a in
  {
    read_your_writes = read_your_writes a is_upd;
    monotonic_reads = monotonic_reads a;
    monotonic_writes = monotonic_writes a is_upd seen;
    writes_follow_reads = writes_follow_reads a is_upd seen;
  }

let entries r =
  [
    ("read-your-writes", r.read_your_writes);
    ("monotonic-reads", r.monotonic_reads);
    ("monotonic-writes", r.monotonic_writes);
    ("writes-follow-reads", r.writes_follow_reads);
  ]

let all_hold r = List.for_all (fun (_, res) -> res = Ok ()) (entries r)

let holding r =
  List.filter_map (fun (name, res) -> if res = Ok () then Some name else None) (entries r)

let pp ppf r =
  List.iter
    (fun (name, res) ->
      match res with
      | Ok () -> Format.fprintf ppf "%s: ok@," name
      | Error m -> Format.fprintf ppf "%s: %s@," name m)
    (entries r)
