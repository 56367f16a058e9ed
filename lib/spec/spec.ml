open Haec_util
open Haec_model

type t = {
  name : string;
  apply : ctx:Abstract.t -> target:int -> Op.response;
}

(* All update operations return Ok in every Figure 1 specification; only
   reads consult the context. *)
let on_read name read =
  {
    name;
    apply =
      (fun ~ctx ~target ->
        match (Abstract.event ctx target).Event.op with
        | Op.Read -> read ctx target
        | Op.Write _ | Op.Add _ | Op.Remove _ -> Op.Ok);
  }

(* Each read is answered from [ctx]'s own rows: the members of
   ctxt(ctx, target) come from {!Abstract.iter_context}, and "visible to a
   later member" is a bit of the union of the members' rows. *)

let rw_register =
  on_read "rw-register" (fun ctx target ->
      (* the last write in H' is the largest member write; members arrive
         in descending order, so it is the first one met *)
      let last = ref None in
      Abstract.iter_context ctx target (fun i ->
          match ((Abstract.event ctx i).Event.op, !last) with
          | Op.Write v, None -> last := Some v
          | (Op.Write _ | Op.Read | Op.Add _ | Op.Remove _), _ -> ());
      Op.vals (Option.to_list !last))

let mvr =
  on_read "mvr" (fun ctx target ->
      (* a member write is dominated iff it is visible to another member
         write: one union of the member writes' rows *)
      let writes = ref [] in
      let dominated = Bitset.create (Abstract.length ctx) in
      Abstract.iter_context ctx target (fun i ->
          match (Abstract.event ctx i).Event.op with
          | Op.Write v ->
            writes := (i, v) :: !writes;
            Bitset.union_into ~dst:dominated (Abstract.vis_row ctx i)
          | Op.Read | Op.Add _ | Op.Remove _ -> ());
      Op.vals
        (List.filter_map
           (fun (i, v) -> if Bitset.get dominated i then None else Some v)
           !writes))

let orset =
  on_read "orset" (fun ctx target ->
      (* per removed value, the union of its member removes' rows: an add
         in it is observed by a remove of its value *)
      let adds = ref [] and removed = ref [] in
      Abstract.iter_context ctx target (fun i ->
          match (Abstract.event ctx i).Event.op with
          | Op.Add v -> adds := (i, v) :: !adds
          | Op.Remove v ->
            let row =
              match List.find_opt (fun (v', _) -> Value.equal v v') !removed with
              | Some (_, row) -> row
              | None ->
                let row = Bitset.create (Abstract.length ctx) in
                removed := (v, row) :: !removed;
                row
            in
            Bitset.union_into ~dst:row (Abstract.vis_row ctx i)
          | Op.Read | Op.Write _ -> ());
      Op.vals
        (List.filter_map
           (fun (i, v) ->
             match List.find_opt (fun (v', _) -> Value.equal v v') !removed with
             | Some (_, row) when Bitset.get row i -> None
             | Some _ | None -> Some v)
           !adds))

let counter =
  on_read "counter" (fun ctx target ->
      let adds = ref 0 and removes = ref 0 in
      Abstract.iter_context ctx target (fun i ->
          match (Abstract.event ctx i).Event.op with
          | Op.Add _ -> incr adds
          | Op.Remove _ -> incr removes
          | Op.Read | Op.Write _ -> ());
      Op.vals [ Value.Int (!adds - !removes) ])

let response_in spec a e = spec.apply ~ctx:a ~target:e

let check_event spec a e =
  let expected = response_in spec a e in
  let actual = (Abstract.event a e).Event.rval in
  if Op.equal_response expected actual then Ok ()
  else
    Error
      (Format.asprintf "event %d (%a): expected %a, recorded %a" e Event.pp_do
         (Abstract.event a e) Op.pp_response expected Op.pp_response actual)

let check_correct ~spec_of a =
  let rec go e =
    if e >= Abstract.length a then Ok ()
    else
      let spec = spec_of (Abstract.event a e).Event.obj in
      match check_event spec a e with Ok () -> go (e + 1) | Error _ as err -> err
  in
  go 0

let is_correct ~spec_of a = match check_correct ~spec_of a with Ok () -> true | Error _ -> false

let with_correct_responses ~spec_of a =
  (* Responses never influence other events' specified responses, so one
     pass over the original suffices. *)
  let h = Abstract.events a in
  let h' =
    Array.mapi
      (fun e d ->
        { d with Event.rval = response_in (spec_of d.Event.obj) a e })
      h
  in
  Abstract.create ~n:(Abstract.n_replicas a) h' ~vis:(Abstract.vis_pairs a)
