(* Session guarantees checker + the state-based MVR store. *)

open Helpers
open Haec
module Session = Consistency.Session
module Mvr_object = Store.Mvr_object
module Op = Model.Op
module A = Abstract

(* ---------- session guarantees on hand-built abstract executions ---------- *)

let test_causal_implies_all () =
  let a =
    A.create ~n:2
      [| w_ 0 0 1; w_ 0 1 2; rd_ 1 0 [ 1 ]; rd_ 1 1 [ 2 ] |]
      ~vis:[ (0, 2); (1, 2); (0, 3); (1, 3) ]
  in
  let r = Session.check a in
  Alcotest.(check bool) "all hold" true (Session.all_hold r);
  Alcotest.(check int) "four guarantees" 4 (List.length (Session.holding r))

let test_monotonic_writes_violation () =
  (* R0 issues w1 then w2; somewhere w2 is visible without w1 *)
  let a =
    A.create ~n:2 [| w_ 0 0 1; w_ 0 1 2; rd_ 1 1 [ 2 ] |] ~vis:[ (1, 2) ]
  in
  let r = Session.check a in
  Alcotest.(check bool) "mw broken" true (r.Session.monotonic_writes <> Ok ());
  Alcotest.(check bool) "ryw intact" true (r.Session.read_your_writes = Ok ())

let test_wfr_violation () =
  (* R1 writes w2 after observing w1; a third party sees w2 without w1 *)
  let a =
    A.create ~n:3 [| w_ 0 0 1; w_ 1 1 2; rd_ 2 1 [ 2 ] |] ~vis:[ (0, 1); (1, 2) ]
  in
  let r = Session.check a in
  Alcotest.(check bool) "wfr broken" true (r.Session.writes_follow_reads <> Ok ());
  Alcotest.(check (list string)) "others hold"
    [ "read-your-writes"; "monotonic-reads"; "monotonic-writes" ]
    (Session.holding r)

let test_ryw_violation_impossible_in_valid_ae () =
  (* Definition 4 bakes read-your-writes into every abstract execution *)
  let a = A.create ~n:1 [| w_ 0 0 1; rd_ 0 0 [ 1 ] |] ~vis:[] in
  Alcotest.(check bool) "ryw structural" true ((Session.check a).Session.read_your_writes = Ok ())

(* ---------- the session checks against their quantifier-literal oracle ---------- *)

(* The earlier implementation of [Session.check], kept verbatim as the
   oracle: each guarantee is its definition's nested loops, so the first
   violation a loop meets fixes the reported message. Do not optimize
   it. *)
module Oracle = struct
  let check_read_your_writes_reference a =
    let len = Abstract.length a in
    let exception Bad of string in
    try
      for w = 0 to len - 1 do
        let dw = Abstract.event a w in
        if Op.is_update dw.Event.op then
          for e = w + 1 to len - 1 do
            let de = Abstract.event a e in
            if
              de.Event.replica = dw.Event.replica
              && de.Event.obj = dw.Event.obj
              && not (Abstract.vis a w e)
            then raise (Bad (Printf.sprintf "own update %d invisible to later event %d" w e))
          done
      done;
      Ok ()
    with Bad m -> Error m

  let check_monotonic_reads_reference a =
    let len = Abstract.length a in
    let exception Bad of string in
    try
      for e = 0 to len - 1 do
        let de = Abstract.event a e in
        for e' = e + 1 to len - 1 do
          let de' = Abstract.event a e' in
          if de'.Event.replica = de.Event.replica then
            List.iter
              (fun w ->
                if not (Abstract.vis a w e') then
                  raise
                    (Bad (Printf.sprintf "update %d visible to %d but not to later %d" w e e')))
              (Abstract.vis_preds a e)
        done
      done;
      Ok ()
    with Bad m -> Error m

  let check_monotonic_writes_reference a =
    let len = Abstract.length a in
    let exception Bad of string in
    try
      for w = 0 to len - 1 do
        let dw = Abstract.event a w in
        if Op.is_update dw.Event.op then
          (* earlier updates of the issuer, on any object *)
          for w' = 0 to w - 1 do
            let dw' = Abstract.event a w' in
            if dw'.Event.replica = dw.Event.replica && Op.is_update dw'.Event.op then
              for e = w + 1 to len - 1 do
                if Abstract.vis a w e && not (Abstract.vis a w' e) then
                  raise
                    (Bad
                       (Printf.sprintf
                          "update %d visible to %d without the issuer's earlier update %d" w
                          e w'))
              done
          done
      done;
      Ok ()
    with Bad m -> Error m

  let check_writes_follow_reads_reference a =
    let len = Abstract.length a in
    let exception Bad of string in
    try
      for w = 0 to len - 1 do
        let dw = Abstract.event a w in
        if Op.is_update dw.Event.op then
          (* updates visible to the issuer at issue time, on any object *)
          List.iter
            (fun w' ->
              let dw' = Abstract.event a w' in
              if Op.is_update dw'.Event.op then
                for e = w + 1 to len - 1 do
                  if Abstract.vis a w e && not (Abstract.vis a w' e) then
                    raise
                      (Bad
                         (Printf.sprintf
                            "update %d visible to %d without its observed predecessor %d" w e
                            w'))
                done)
            (Abstract.vis_preds a w)
      done;
      Ok ()
    with Bad m -> Error m

  let check_reference a =
    {
      Session.read_your_writes = check_read_your_writes_reference a;
      monotonic_reads = check_monotonic_reads_reference a;
      monotonic_writes = check_monotonic_writes_reference a;
      writes_follow_reads = check_writes_follow_reads_reference a;
    }
end

let fails r =
  List.map
    (fun (name, res) -> (name, res <> Ok ()))
    [
      ("read-your-writes", r.Session.read_your_writes);
      ("monotonic-reads", r.Session.monotonic_reads);
      ("monotonic-writes", r.Session.monotonic_writes);
      ("writes-follow-reads", r.Session.writes_follow_reads);
    ]

(* A random abstract execution of about 40 events over 2-4 replicas and
   1-3 objects. Edge density varies per history, some edges point
   backwards in H (as [create_unchecked] permits, so the [e > w] bounds
   matter), and some histories are transitively closed. *)
let random_session_ae seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 3 in
  let objects = 1 + Rng.int rng 3 in
  let len = 30 + Rng.int rng 21 in
  let events =
    Array.init len (fun _ ->
        let replica = Rng.int rng n in
        let obj = Rng.int rng objects in
        if Rng.bool rng then w_ replica obj (Rng.int rng 50) else rd_ replica obj [])
  in
  let sparsity = 4 lsl Rng.int rng 5 in
  let backwards = Rng.int rng 3 = 0 in
  let vis = ref [] in
  for j = 1 to len - 1 do
    for i = 0 to j - 1 do
      if Rng.int rng sparsity = 0 then vis := (i, j) :: !vis;
      if backwards && Rng.int rng (4 * sparsity) = 0 then vis := (j, i) :: !vis
    done
  done;
  let a = A.create_unchecked ~n events ~vis:!vis in
  if Rng.bool rng then A.transitive_closure a else a

let test_check_matches_reference () =
  (* whole reports, witness messages included. Read-your-writes and
     monotonic reads are conditions (1) and (2) of Definition 4, which
     every abstract execution has by construction, so they never fail;
     the other two must fail often enough, and hold often enough, for
     the comparison to test both outcomes *)
  let runs = 300 in
  let failed = Hashtbl.create 4 in
  let count name = Option.value ~default:0 (Hashtbl.find_opt failed name) in
  for seed = 1 to runs do
    let a = random_session_ae seed in
    let fast = Session.check a and slow = Oracle.check_reference a in
    if fast <> slow then
      Alcotest.failf "seed %d:@.check@.%a@.reference@.%a" seed Session.pp fast Session.pp slow;
    List.iter
      (fun (name, bad) -> if bad then Hashtbl.replace failed name (count name + 1))
      (fails fast)
  done;
  Alcotest.(check int) "read-your-writes never fails" 0 (count "read-your-writes");
  Alcotest.(check int) "monotonic-reads never fails" 0 (count "monotonic-reads");
  List.iter
    (fun name ->
      let k = count name in
      if k < runs / 5 || k > runs * 4 / 5 then
        Alcotest.failf "%s failed in %d of %d histories" name k runs)
    [ "monotonic-writes"; "writes-follow-reads" ]

let causal_witness ~seed ~ops =
  let module R = Sim.Runner.Make (Store.Causal_mvr_store) in
  let rng = Rng.create seed in
  let sim = R.create ~seed ~n:4 ~policy:(Sim.Net_policy.random_delay ()) () in
  let steps = Sim.Workload.generate ~rng ~n:4 ~objects:8 ~ops Sim.Workload.register_mix in
  Sim.Workload.run
    (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
    ~advance:(R.advance_to sim) steps;
  R.run_until_quiescent sim;
  R.witness_abstract sim

let test_bitset_matches_reference_on_witnesses () =
  (* the same oracle on real witness abstract executions from simulator
     runs, where the guarantees mostly hold *)
  let module R = Sim.Runner.Make (Store.Causal_mvr_store) in
  for seed = 1 to 5 do
    let rng = Rng.create seed in
    let sim = R.create ~seed ~n:3 ~policy:(Sim.Net_policy.lossy ()) () in
    let steps =
      Sim.Workload.generate ~rng ~n:3 ~objects:3 ~ops:60 Sim.Workload.register_mix
    in
    Sim.Workload.run
      (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
      ~advance:(R.advance_to sim) steps;
    R.run_until_quiescent sim;
    let w = R.witness_abstract sim in
    if Session.check w <> Oracle.check_reference w then
      Alcotest.failf "seed %d: fast and reference session reports differ" seed
  done

let test_planted_late_violations () =
  (* a causal witness holds all four guarantees; dropping one
     cross-replica visibility edge near its end can break monotonic
     writes or writes-follow-reads late in H. The first such planted
     report for each must be the oracle's, message for message *)
  let w = causal_witness ~seed:21 ~ops:300 in
  let len = A.length w in
  Alcotest.(check bool) "witness holds all four" true (Session.all_hold (Session.check w));
  let events = A.events w in
  let pairs = A.vis_pairs w in
  (* only an edge the receiver's previous event did not carry stays
     dropped: [A.create] re-adds what that event saw *)
  let prev_at j =
    let rec go i =
      if i < 0 || events.(i).Event.replica = events.(j).Event.replica then i else go (i - 1)
    in
    go (j - 1)
  in
  let droppable (i, j) =
    j >= len - 40
    && events.(i).Event.replica <> events.(j).Event.replica
    && (prev_at j < 0 || not (A.vis w i (prev_at j)))
  in
  let planted =
    List.filter_map
      (fun edge ->
        if droppable edge then
          Some (A.create ~n:4 events ~vis:(List.filter (( <> ) edge) pairs))
        else None)
      (List.rev pairs)
  in
  List.iter
    (fun name ->
      match
        List.find_opt
          (fun a -> List.assoc name (fails (Oracle.check_reference a)))
          planted
      with
      | None -> Alcotest.failf "no late edge breaks %s" name
      | Some a ->
        let slow = Oracle.check_reference a in
        if Session.check a <> slow then
          Alcotest.failf "%s planted:@.check@.%a@.reference@.%a" name Session.pp
            (Session.check a) Session.pp slow)
    [ "monotonic-writes"; "writes-follow-reads" ]

(* ---------- state-based store ---------- *)

module RS = Sim.Runner.Make (Store.State_mvr_store)

let test_state_store_converges () =
  let sim = RS.create ~n:3 ~policy:(Sim.Net_policy.lossy ()) () in
  ignore (RS.op sim ~replica:0 ~obj:0 (Op.Write (vi 1)));
  ignore (RS.op sim ~replica:1 ~obj:0 (Op.Write (vi 2)));
  ignore (RS.op sim ~replica:2 ~obj:1 (Op.Write (vi 3)));
  RS.run_until_quiescent sim;
  let r0 = RS.op sim ~replica:0 ~obj:0 Op.Read in
  Alcotest.check check_response "siblings" (resp [ 1; 2 ]) r0;
  for r = 1 to 2 do
    Alcotest.check check_response "agree" r0 (RS.op sim ~replica:r ~obj:0 Op.Read)
  done

let test_state_store_causal_by_construction () =
  (* the reordering schedule that breaks the eager store: state messages
     carry causally closed content, so no anomaly is observable *)
  let sim = RS.create ~n:3 ~auto_send:false () in
  ignore (RS.op sim ~replica:0 ~obj:1 (Op.Write (vi 100)));
  let _m_y = Option.get (RS.flush sim ~replica:0) in
  ignore (RS.op sim ~replica:0 ~obj:0 (Op.Write (vi 1)));
  let m_x = Option.get (RS.flush sim ~replica:0) in
  (* only the second (later) state message arrives: it contains both *)
  RS.deliver_msg sim ~dst:2 m_x;
  Alcotest.check check_response "x there" (resp [ 1 ]) (RS.op sim ~replica:2 ~obj:0 Op.Read);
  Alcotest.check check_response "its cause too" (resp [ 100 ])
    (RS.op sim ~replica:2 ~obj:1 Op.Read);
  let closed = A.transitive_closure (RS.witness_abstract sim) in
  Alcotest.(check bool) "causally consistent" true (Specf.is_correct ~spec_of:mvr_spec closed)

let test_state_message_grows () =
  let size_after_objects k =
    let sim = RS.create ~n:2 ~auto_send:false () in
    for obj = 0 to k - 1 do
      ignore (RS.op sim ~replica:0 ~obj (Op.Write (vi obj)))
    done;
    Model.Message.size_bits (Option.get (RS.flush sim ~replica:0))
  in
  Alcotest.(check bool) "grows with objects" true (size_after_objects 2 < size_after_objects 20)

(* ---------- Mvr_object.join laws ---------- *)

let join_states_of_seed seed =
  let rng = Rng.create seed in
  (* three replicas make writes with partial knowledge, producing three
     divergent object states *)
  let sts = Array.init 3 (fun _ -> Mvr_object.empty ~n:3) in
  for i = 1 to 6 do
    let me = Rng.int rng 3 in
    (* occasionally pull in another replica's state *)
    let other = Rng.int rng 3 in
    if Rng.bool rng then sts.(me) <- Mvr_object.join sts.(me) sts.(other);
    let st, _ = Mvr_object.local_write sts.(me) ~me (vi (100 + i)) in
    sts.(me) <- st
  done;
  (sts.(0), sts.(1), sts.(2))

let normal st = List.sort compare (Mvr_object.read st)

let prop_join_laws =
  q ~count:150 "mvr join: commutative, associative, idempotent"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let a, b, c = join_states_of_seed seed in
      let ( <+> ) = Mvr_object.join in
      normal (a <+> b) = normal (b <+> a)
      && normal ((a <+> b) <+> c) = normal (a <+> (b <+> c))
      && normal (a <+> a) = normal a
      && normal ((a <+> b) <+> b) = normal (a <+> b))

let prop_join_agrees_with_updates =
  (* merging via full-state join gives the same read as applying all
     update records *)
  q ~count:100 "mvr join agrees with op-based delivery"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let st = ref (Mvr_object.empty ~n:2) in
      let updates = ref [] in
      for i = 1 to 5 do
        let s, u = Mvr_object.local_write !st ~me:0 (vi i) in
        st := s;
        updates := u :: !updates
      done;
      let other = ref (Mvr_object.empty ~n:2) in
      List.iter
        (fun u -> if Rng.bool rng then other := Mvr_object.apply !other u)
        (List.rev !updates);
      let via_join = normal (Mvr_object.join !other !st) in
      let via_ops =
        normal (List.fold_left Mvr_object.apply !other (List.rev !updates))
      in
      via_join = via_ops)

let test_state_roundtrip () =
  let a, _, _ = join_states_of_seed 7 in
  let a' = Haec.Wire.decode (Haec.Wire.encode (fun e -> Mvr_object.encode e a)) Mvr_object.decode in
  Alcotest.(check bool) "wire roundtrip preserves reads" true (normal a = normal a')

let suite =
  ( "session+state",
    [
      tc "causal implies all four guarantees" test_causal_implies_all;
      tc "monotonic-writes violation detected" test_monotonic_writes_violation;
      tc "writes-follow-reads violation detected" test_wfr_violation;
      tc "read-your-writes structural" test_ryw_violation_impossible_in_valid_ae;
      tc "session check == reference" test_check_matches_reference;
      tc "session fast == reference on witnesses" test_bitset_matches_reference_on_witnesses;
      tc "planted late violations == reference" test_planted_late_violations;
      tc "state store converges" test_state_store_converges;
      tc "state store causal by construction" test_state_store_causal_by_construction;
      tc "state message grows with objects" test_state_message_grows;
      prop_join_laws;
      prop_join_agrees_with_updates;
      tc "state wire roundtrip" test_state_roundtrip;
    ] )
