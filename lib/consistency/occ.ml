open Haec_util
open Haec_model
open Haec_spec

type violation = {
  read : int;
  w0 : int;
  w1 : int;
}

(* What one check needs about [H], gathered in one pass: every write by
   (object, value), every update by object, and — built the first time a
   witness candidate on that object is tested — each object's updates as a
   row-sized mask for condition 4. *)
type index = {
  a : Abstract.t;
  writes : (int * Value.t, int list) Hashtbl.t;
  updates : (int, int list) Hashtbl.t;
  masks : (int, Bitset.t) Hashtbl.t;
}

let index a =
  let writes = Hashtbl.create 64 and updates = Hashtbl.create 16 in
  let push tbl k i =
    Hashtbl.replace tbl k (i :: Option.value (Hashtbl.find_opt tbl k) ~default:[])
  in
  for i = 0 to Abstract.length a - 1 do
    let d = Abstract.event a i in
    if Op.is_update d.Event.op then push updates d.Event.obj i;
    match d.Event.op with
    | Op.Write v -> push writes (d.Event.obj, v) i
    | Op.Read | Op.Add _ | Op.Remove _ -> ()
  done;
  { a; writes; updates; masks = Hashtbl.create 16 }

let updates_mask idx o =
  match Hashtbl.find_opt idx.masks o with
  | Some m -> m
  | None ->
    let m = Bitset.create (Abstract.length idx.a) in
    List.iter (Bitset.set m) (Option.value (Hashtbl.find_opt idx.updates o) ~default:[]);
    Hashtbl.add idx.masks o m;
    m

(* The write events of object [o] whose values appear in [vs], matched by
   value (writes write distinct values, per the paper's convention). *)
let writes_of_values idx ~obj vs =
  let find v =
    match Hashtbl.find_opt idx.writes (obj, v) with
    | Some [ i ] -> Ok i
    | None | Some [] -> Error (Format.asprintf "no write of value %a" Value.pp v)
    | Some _ -> Error (Format.asprintf "multiple writes of value %a" Value.pp v)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | v :: rest -> ( match find v with Ok i -> go (i :: acc) rest | Error _ as e -> e)
  in
  go [] vs

(* The conditions of Definition 18 on one side, for a candidate [wi']
   drawn from the row of the other returned write (so visible to it):
   [wi'] may witness for [wi] (read on [obj]) iff it is an update to
   another object, not visible to [wi], and every update to its object
   visible to [wi] is visible to [wi'] (condition 4: one masked subset
   test). *)
let valid_for idx ~obj ~wi wi' =
  let d = Abstract.event idx.a wi' in
  let row_i = Abstract.vis_row idx.a wi in
  Op.is_update d.Event.op
  && d.Event.obj <> obj
  && (not (Bitset.get row_i wi'))
  && Bitset.is_subset_masked ~mask:(updates_mask idx d.Event.obj) row_i
       (Abstract.vis_row idx.a wi')

(* The lexicographically first pair (w0', w1') of valid witnesses on two
   distinct objects — the pair [witnesses_for] reports. For a given w0'
   the first fitting w1' is the first valid w1' or, when that one shares
   w0''s object, the first valid w1' on any other object, so each side's
   candidates are scanned at most once per pair. *)
let search idx ~read ~w0 ~w1 =
  let obj = (Abstract.event idx.a read).Event.obj in
  let obj_of w = (Abstract.event idx.a w).Event.obj in
  (* w1' is drawn from w0's row, w0' from w1's *)
  let first_w1' p =
    Bitset.find_first (Abstract.vis_row idx.a w0) (fun w ->
        p w && valid_for idx ~obj ~wi:w1 w)
  in
  match first_w1' (fun _ -> true) with
  | None -> None
  | Some v1 ->
    let v1_elsewhere = lazy (first_w1' (fun w -> obj_of w <> obj_of v1)) in
    let fitting w0' =
      if obj_of w0' <> obj_of v1 then Some v1 else Lazy.force v1_elsewhere
    in
    Bitset.find_first (Abstract.vis_row idx.a w1) (fun w0' ->
        valid_for idx ~obj ~wi:w0 w0' && Option.is_some (fitting w0'))
    |> Option.map (fun w0' -> (w0', Option.get (fitting w0')))

let witnesses_for a ~read ~w0 ~w1 = search (index a) ~read ~w0 ~w1

let check a =
  let exception Unsupported of string in
  try
    let idx = index a in
    let violations = ref [] in
    for r = 0 to Abstract.length a - 1 do
      let d = Abstract.event a r in
      match (d.Event.op, d.Event.rval) with
      | Op.Read, Op.Vals vs when List.length vs >= 2 -> (
        match writes_of_values idx ~obj:d.Event.obj vs with
        | Error m -> raise (Unsupported m)
        | Ok ws ->
          (* every unordered pair of returned writes needs witnesses *)
          let rec pairs = function
            | [] -> ()
            | w0 :: rest ->
              List.iter
                (fun w1 ->
                  match search idx ~read:r ~w0 ~w1 with
                  | Some _ -> ()
                  | None -> violations := { read = r; w0; w1 } :: !violations)
                rest;
              pairs rest
          in
          pairs ws)
      | _ -> ()
    done;
    Ok (List.rev !violations)
  with Unsupported m -> Error m

let is_occ a =
  Abstract.is_transitive a && match check a with Ok [] -> true | Ok _ | Error _ -> false
