(* Equivalence of the row-based checkers with their earlier,
   context-materialising forms.

   [Oracle] holds the earlier implementations: a specification is
   evaluated on the sub-execution [Helpers.context] builds for each
   event, with nested scans over the context's members, and the OCC
   check rescans all of H for every returned value and re-tests
   condition 4 over every update inside its nested witness search. The
   properties compare them with [Spec] and [Occ] on random raw and
   transitively closed executions, some reads carrying wrong responses,
   and on simulated causal-MVR histories. *)

open Helpers
open Haec
module A = Abstract

module Oracle = struct
  (* ---- specifications over a materialised context ([target] last) ---- *)

  let rw_register ctx target =
    let rec last_write i =
      if i < 0 then Op.vals []
      else
        match (A.event ctx i).Event.op with
        | Op.Write v -> Op.vals [ v ]
        | Op.Read | Op.Add _ | Op.Remove _ -> last_write (i - 1)
    in
    last_write (target - 1)

  let mvr ctx target =
    let values = ref [] in
    for e1 = 0 to target - 1 do
      match (A.event ctx e1).Event.op with
      | Op.Write v ->
        let dominated = ref false in
        for e2 = e1 + 1 to target - 1 do
          match (A.event ctx e2).Event.op with
          | Op.Write _ -> if A.vis ctx e1 e2 then dominated := true
          | Op.Read | Op.Add _ | Op.Remove _ -> ()
        done;
        if not !dominated then values := v :: !values
      | Op.Read | Op.Add _ | Op.Remove _ -> ()
    done;
    Op.vals !values

  let orset ctx target =
    let values = ref [] in
    for e1 = 0 to target - 1 do
      match (A.event ctx e1).Event.op with
      | Op.Add v ->
        let removed = ref false in
        for e2 = e1 + 1 to target - 1 do
          match (A.event ctx e2).Event.op with
          | Op.Remove v' -> if Value.equal v v' && A.vis ctx e1 e2 then removed := true
          | Op.Read | Op.Write _ | Op.Add _ -> ()
        done;
        if not !removed then values := v :: !values
      | Op.Read | Op.Write _ | Op.Remove _ -> ()
    done;
    Op.vals !values

  let counter ctx target =
    let total = ref 0 in
    for e1 = 0 to target - 1 do
      match (A.event ctx e1).Event.op with
      | Op.Add _ -> incr total
      | Op.Remove _ -> decr total
      | Op.Read | Op.Write _ -> ()
    done;
    Op.vals [ Value.Int !total ]

  let read_fn (spec : Specf.t) =
    match spec.Specf.name with
    | "rw-register" -> rw_register
    | "mvr" -> mvr
    | "orset" -> orset
    | "counter" -> counter
    | other -> invalid_arg ("no oracle for spec " ^ other)

  let response_in spec a e =
    let ctx, target = context a e in
    match (A.event ctx target).Event.op with
    | Op.Read -> read_fn spec ctx target
    | Op.Write _ | Op.Add _ | Op.Remove _ -> Op.Ok

  let check_correct ~spec_of a =
    let rec go e =
      if e >= A.length a then Ok ()
      else
        let d = A.event a e in
        let expected = response_in (spec_of d.Event.obj) a e in
        if Op.equal_response expected d.Event.rval then go (e + 1)
        else
          Error
            (Format.asprintf "event %d (%a): expected %a, recorded %a" e Event.pp_do d
               Op.pp_response expected Op.pp_response d.Event.rval)
    in
    go 0

  (* ---- OCC by nested scans ---- *)

  let writes_of_values a ~obj vs =
    let find v =
      let hits = ref [] in
      for i = 0 to A.length a - 1 do
        let d = A.event a i in
        match d.Event.op with
        | Op.Write v' when d.Event.obj = obj && Value.equal v v' -> hits := i :: !hits
        | Op.Write _ | Op.Read | Op.Add _ | Op.Remove _ -> ()
      done;
      match !hits with
      | [ i ] -> Ok i
      | [] -> Error (Format.asprintf "no write of value %a" Value.pp v)
      | _ -> Error (Format.asprintf "multiple writes of value %a" Value.pp v)
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | v :: rest -> ( match find v with Ok i -> go (i :: acc) rest | Error _ as e -> e)
    in
    go [] vs

  let all_writes a =
    let acc = ref [] in
    for i = A.length a - 1 downto 0 do
      if Op.is_update (A.event a i).Event.op then acc := i :: !acc
    done;
    !acc

  let valid_witnesses a ~obj ~writes ~w0 ~w1 ~w0' ~w1' =
    let cond_for wi wi' =
      let oi' = (A.event a wi').Event.obj in
      oi' <> obj
      && A.vis a wi' (if wi = w0 then w1 else w0)
      && (not (A.vis a wi' wi))
      && List.for_all
           (fun w ->
             let d = A.event a w in
             if d.Event.obj = oi' && A.vis a w wi then A.vis a w wi' else true)
           writes
    in
    (A.event a w0').Event.obj <> (A.event a w1').Event.obj
    && cond_for w0 w0' && cond_for w1 w1'

  let witnesses_for a ~read ~w0 ~w1 =
    let obj = (A.event a read).Event.obj in
    let writes = all_writes a in
    let cands_w1' = List.filter (fun w -> A.vis a w w0) writes in
    let cands_w0' = List.filter (fun w -> A.vis a w w1) writes in
    let rec search = function
      | [] -> None
      | w0' :: rest ->
        let rec inner = function
          | [] -> search rest
          | w1' :: rest' ->
            if valid_witnesses a ~obj ~writes ~w0 ~w1 ~w0' ~w1' then Some (w0', w1')
            else inner rest'
        in
        inner cands_w1'
    in
    search cands_w0'

  let occ_check a =
    let exception Unsupported of string in
    try
      let violations = ref [] in
      for r = 0 to A.length a - 1 do
        let d = A.event a r in
        match (d.Event.op, d.Event.rval) with
        | Op.Read, Op.Vals vs when List.length vs >= 2 -> (
          match writes_of_values a ~obj:d.Event.obj vs with
          | Error m -> raise (Unsupported m)
          | Ok ws ->
            let rec pairs = function
              | [] -> ()
              | w0 :: rest ->
                List.iter
                  (fun w1 ->
                    match witnesses_for a ~read:r ~w0 ~w1 with
                    | Some _ -> ()
                    | None -> violations := (r, w0, w1) :: !violations)
                  rest;
                pairs rest
            in
            pairs ws)
        | _ -> ()
      done;
      Ok (List.rev !violations)
    with Unsupported m -> Error m
end

(* ---------- generators ---------- *)

let specs = [| Specf.rw_register; Specf.mvr; Specf.orset; Specf.counter |]

(* A random execution over [objects] objects: writes of fresh values
   (or, with [dup_values], of values drawn from a small range so some
   repeat), adds and removes over a small value range, and reads whose
   responses the MVR specification fixes. Visibility edges are random,
   so the raw execution is rarely transitive; [closed] takes its closure.
   Then a share of reads get a wrong response: a random subset of values
   written on the read's object, possibly with one never written. *)
let random_exec ?(dup_values = false) ~closed seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 3 in
  let objects = 2 + Rng.int rng 3 in
  let len = 6 + Rng.int rng 30 in
  let fresh = ref 0 in
  let h =
    Array.init len (fun _ ->
        let replica = Rng.int rng n and obj = Rng.int rng objects in
        let k = Rng.int rng 10 in
        if k < 4 then begin
          incr fresh;
          w_ replica obj (if dup_values then Rng.int rng 6 else !fresh)
        end
        else if k < 5 then add_ replica obj (Rng.int rng 3)
        else if k < 6 then rm_ replica obj (Rng.int rng 3)
        else rd_ replica obj [])
  in
  let density = 0.1 +. Rng.float rng 0.5 in
  let vis = ref [] in
  for j = 0 to len - 1 do
    for i = 0 to j - 1 do
      if Rng.chance rng density then vis := (i, j) :: !vis
    done
  done;
  let a = A.create ~n h ~vis:!vis in
  let a = if closed then A.transitive_closure a else a in
  let a = Specf.with_correct_responses ~spec_of:mvr_spec a in
  let corrupt = Rng.float rng 0.4 in
  let h =
    Array.map
      (fun (d : Event.do_event) ->
        match d.Event.op with
        | Op.Read when Rng.chance rng corrupt ->
          let written =
            Array.to_list h
            |> List.filter_map (fun (w : Event.do_event) ->
                   match w.Event.op with
                   | Op.Write v when w.Event.obj = d.Event.obj && Rng.bool rng -> Some v
                   | Op.Write _ | Op.Read | Op.Add _ | Op.Remove _ -> None)
          in
          let stray = if Rng.chance rng 0.2 then [ vi (1000 + Rng.int rng 5) ] else [] in
          { d with Event.rval = Op.vals (stray @ written) }
        | Op.Read | Op.Write _ | Op.Add _ | Op.Remove _ -> d)
      (A.events a)
  in
  A.create ~n h ~vis:(A.vis_pairs a)

(* a causal-MVR simulator history and its raw witness *)
let sim_witness seed =
  let module R = Sim.Runner.Make (Store.Causal_mvr_store) in
  let rng = Rng.create seed in
  let sim = R.create ~seed ~n:3 ~policy:(Sim.Net_policy.random_delay ()) () in
  let steps = Sim.Workload.generate ~rng ~n:3 ~objects:4 ~ops:90 Sim.Workload.register_mix in
  Sim.Workload.run
    (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
    ~advance:(R.advance_to sim) steps;
  R.run_until_quiescent sim;
  R.witness_abstract sim

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let raw_or_closed = QCheck2.Gen.(pair seed_gen bool)

(* ---------- comparisons ---------- *)

let same_responses a =
  let ok = ref true in
  for e = 0 to A.length a - 1 do
    Array.iter
      (fun spec ->
        if not (Op.equal_response (Specf.response_in spec a e) (Oracle.response_in spec a e))
        then ok := false)
      specs
  done;
  !ok

let same_correct a =
  List.for_all
    (fun spec_of -> Specf.check_correct ~spec_of a = Oracle.check_correct ~spec_of a)
    [
      mvr_spec;
      orset_spec;
      (fun _ -> Specf.rw_register);
      (fun _ -> Specf.counter);
      (fun o -> specs.(o mod Array.length specs));
    ]

let same_occ a =
  let ours =
    Result.map (List.map (fun v -> (v.Occ.read, v.Occ.w0, v.Occ.w1))) (Occ.check a)
  in
  ours = Oracle.occ_check a

(* every read against every ordered pair of writes on its object,
   returned or not: the same first witness pair, or none *)
let same_witnesses a =
  let len = A.length a in
  let ok = ref true in
  for r = 0 to len - 1 do
    let d = A.event a r in
    if not (Op.is_update d.Event.op) then
      for w0 = 0 to len - 1 do
        for w1 = 0 to len - 1 do
          let on_obj w =
            let dw = A.event a w in
            dw.Event.obj = d.Event.obj
            && match dw.Event.op with Op.Write _ -> true | _ -> false
          in
          if on_obj w0 && on_obj w1 then
            if Occ.witnesses_for a ~read:r ~w0 ~w1 <> Oracle.witnesses_for a ~read:r ~w0 ~w1
            then ok := false
        done
      done
  done;
  !ok

let prop_responses =
  q ~count:300 "four specs: row responses == materialised contexts" raw_or_closed
    (fun (seed, closed) -> same_responses (random_exec ~closed seed))

let prop_correct =
  q ~count:300 "check_correct: same Ok / Error message as the oracle" raw_or_closed
    (fun (seed, closed) -> same_correct (random_exec ~closed seed))

let prop_occ =
  q ~count:300 "occ: same violation list / Error text as the nested scan" raw_or_closed
    (fun (seed, closed) -> same_occ (random_exec ~closed seed))

let prop_occ_dup =
  q ~count:300 "occ: same Error text for missing and duplicate written values"
    raw_or_closed (fun (seed, closed) ->
      same_occ (random_exec ~dup_values:true ~closed seed))

let prop_witnesses =
  q ~count:150 "occ: same first witness pair for every read and write pair"
    raw_or_closed (fun (seed, closed) -> same_witnesses (random_exec ~closed seed))

let prop_planted =
  q ~count:40 "occ: planted Figure 3c gadgets agree with the oracle" seed_gen (fun seed ->
      let a =
        Construction.Occ_gen.planted (Rng.create seed) ~n:4 ~groups:3 ~readers:2 ()
      in
      same_occ a && same_witnesses a)

let prop_sim =
  q ~count:12 "simulated causal-MVR histories: raw and closed agree" seed_gen
    (fun seed ->
      let raw = sim_witness seed in
      let closed = A.transitive_closure raw in
      List.for_all
        (fun a -> same_responses a && same_correct a && same_occ a)
        [ raw; closed ])

let suite =
  ( "checker-equiv",
    [
      prop_responses;
      prop_correct;
      prop_occ;
      prop_occ_dup;
      prop_witnesses;
      prop_planted;
      prop_sim;
    ] )
