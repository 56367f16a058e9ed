(* Equivalence of the frontier witness with the list witness it
   replaced.

   [List_witness] is the earlier form, kept as the oracle: a do event
   expands its witness into the [(obj, dot)] list of every visible
   update, resolves each against a table of the self dots added before
   it, adds a vis edge per resolved dot, and reports an (update,
   observer) pair the first time it resolves. {!Sim.Node.Witness}
   resolves only the part of each frontier its replica has not seen.
   The properties feed both the same events and require the same
   [Abstract.t] and the same stream of new pairs; over simulated runs
   they also require the runner's lag histogram and [Visible] span
   stream to be the ones the oracle's pairs give. *)

open Helpers
open Haec
module Dot = Clock.Dot
module Vclock = Clock.Vclock
module Store_intf = Store.Store_intf
module Witness = Sim.Node.Witness
module Histogram = Obs.Metrics.Histogram

module List_witness = struct
  type t = {
    n : int;
    pos : (int * Dot.t, int) Hashtbl.t;  (* (obj, dot) -> do index *)
    first_seen : (int * int, unit) Hashtbl.t;  (* (do index, observer) *)
    mutable h_rev : Event.do_event list;
    mutable count : int;
    mutable vis : (int * int) list;
  }

  let create ~n =
    {
      n;
      pos = Hashtbl.create 64;
      first_seen = Hashtbl.create 64;
      h_rev = [];
      count = 0;
      vis = [];
    }

  (* every dot of the witness, in its documented enumeration order:
     frontiers as listed, each one's prefix ascending, then its
     exceptions descending *)
  let dots (w : Store_intf.witness) =
    List.concat_map
      (fun (f : Store_intf.frontier) ->
        let prefix =
          match f.Store_intf.prefix with
          | None -> []
          | Some cc ->
            List.concat
              (List.init (Vclock.size cc) (fun replica ->
                   List.init (Vclock.get cc replica) (fun s -> Dot.make ~replica ~seq:(s + 1))))
        in
        List.map
          (fun d -> (f.Store_intf.obj, d))
          (prefix @ List.rev (Dot.Set.elements f.Store_intf.exceptions)))
      w.Store_intf.visible

  let add ?(on_new = fun _ ~obj:_ -> ()) t (d : Event.do_event) wit =
    let j = t.count in
    (match wit with
    | None -> ()
    | Some w ->
      List.iter
        (fun ((obj, _) as key) ->
          match Hashtbl.find_opt t.pos key with
          | Some i ->
            t.vis <- (i, j) :: t.vis;
            if not (Hashtbl.mem t.first_seen (i, d.Event.replica)) then begin
              Hashtbl.add t.first_seen (i, d.Event.replica) ();
              on_new i ~obj
            end
          | None -> ())
        (dots w);
      Option.iter (fun dot -> Hashtbl.replace t.pos (d.Event.obj, dot) j) w.Store_intf.self);
    t.h_rev <- d :: t.h_rev;
    t.count <- j + 1;
    j

  let abstract t = Abstract.create ~n:t.n (Array.of_list (List.rev t.h_rev)) ~vis:t.vis
end

(* Feed both witnesses the same do events; each returns its abstract
   execution and its stream of new pairs, as (observing event, update,
   obj). *)
let feed ~n events =
  let frontier = Witness.create ~n and oracle = List_witness.create ~n in
  let ours = ref [] and theirs = ref [] in
  List.iteri
    (fun j (d, wit) ->
      let into stream i ~obj = stream := (j, i, obj) :: !stream in
      assert (Witness.add ~on_new:(into ours) frontier d wit = j);
      assert (List_witness.add ~on_new:(into theirs) oracle d wit = j))
    events;
  ((Witness.abstract frontier, List.rev !ours), (List_witness.abstract oracle, List.rev !theirs))

let same_abstract a b =
  Abstract.events a = Abstract.events b && Abstract.vis_pairs a = Abstract.vis_pairs b

(* ---------- random witnesses ---------- *)

(* A random history of do events with hand-built witnesses over 2-4
   replicas and 1-3 objects. Each origin issues its dots on an object in
   increasing seq order with random gaps (as stores numbering dots per
   origin across objects do). Frontiers are drawn afresh for every event
   — visibility may shrink and grow again — and reach up to two seqs past
   the last dot issued, so some report dots before their update is
   issued, gaps that are never issued, and an event's own dot. *)
let random_history seed =
  let rng = Rng.create seed in
  let n = Rng.int_in rng 2 4 and objects = Rng.int_in rng 1 3 in
  let last = Array.make_matrix objects n 0 in
  let near obj r = max 0 (last.(obj).(r) + Rng.int_in rng (-2) 2) in
  let frontier obj =
    let prefix =
      if Rng.bool rng then Some (Vclock.of_array (Array.init n (near obj))) else None
    in
    let exceptions =
      Dot.Set.of_list
        (List.init (Rng.int rng 4) (fun _ ->
             let replica = Rng.int rng n in
             Dot.make ~replica ~seq:(1 + near obj replica)))
    in
    { Store_intf.obj; prefix; exceptions }
  in
  let events =
    List.init (Rng.int_in rng 5 45) (fun j ->
        let replica = Rng.int rng n and obj = Rng.int rng objects in
        let visible =
          List.filter_map
            (fun o -> if Rng.int rng 3 > 0 then Some (frontier o) else None)
            (List.init objects (fun o -> objects - 1 - o))
        in
        let self =
          if Rng.bool rng then begin
            let seq = last.(obj).(replica) + 1 + Rng.int rng 2 in
            last.(obj).(replica) <- seq;
            Some (Dot.make ~replica ~seq)
          end
          else None
        in
        let op = if Option.is_some self then Op.Write (vi j) else Op.Read in
        let rval = if Option.is_some self then Op.Ok else Op.vals [] in
        ({ Event.replica; obj; op; rval }, Some { Store_intf.visible; self }))
  in
  (n, events)

let prop_random =
  q ~count:500 "random frontiers: same Abstract.t and new-pair stream as the list"
    (QCheck2.Gen.int_range 0 1_000_000) (fun seed ->
      let n, events = random_history seed in
      let (a, ours), (b, theirs) = feed ~n events in
      same_abstract a b && ours = theirs)

(* Replica 0 reports dot (1, 1) before replica 1 issues it: the pair
   must not count as seen then, and must be reported, once, at replica
   0's first event after the issue. *)
let test_dot_before_issue () =
  let dot = Dot.make ~replica:1 ~seq:1 in
  let sees =
    { Store_intf.visible = [ Store_intf.of_dots 0 (Dot.Set.singleton dot) ]; self = None }
  in
  let events =
    [
      (rd_ 0 0 [], Some sees);
      (w_ 1 0 1, Some { Store_intf.visible = []; self = Some dot });
      (rd_ 0 0 [ 1 ], Some sees);
      (rd_ 0 0 [ 1 ], Some sees);
    ]
  in
  let (a, ours), (b, theirs) = feed ~n:2 events in
  let pairs = Alcotest.(list (triple int int int)) in
  Alcotest.check pairs "one new pair, at the first read after the issue" [ (2, 1, 0) ] ours;
  Alcotest.check pairs "as the list witness reports it" theirs ours;
  Alcotest.(check bool) "same Abstract.t" true (same_abstract a b);
  Alcotest.(check bool) "visible to both later reads" true (Abstract.vis a 1 2 && Abstract.vis a 1 3)

(* ---------- simulated runs ---------- *)

(* The catalogue store of entry [e], wrapped durably, run over a seeded
   fault plan and workload: oracle recovery replays {!Store.Durable}'s
   log, anti-entropy recovery runs {!Store.Stack.Durable}; some plans add
   churn (anti-entropy only). The network is one of random delay, FIFO,
   lossy-with-duplicates and a healing partition. Ops homed at a replica
   that cannot serve are skipped; after quiescence (or a divergence
   budget) every serving replica reads every object. *)
module Run (S : Store_intf.S) = struct
  module R = Sim.Runner.Make (S)

  let run ?stack ?recover_state ~spans ~seed ~objects ~policy ~(plan : Sim.Fault_plan.t)
      ~steps ~n () =
    let capacity, initial =
      match plan.Sim.Fault_plan.churn with
      | None -> (n, n)
      | Some c -> (c.Sim.Fault_plan.capacity, c.Sim.Fault_plan.initial)
    in
    let sim =
      R.create ~seed ~n:capacity ~initial ~policy ~faults:plan ?stack ?recover_state
        ~record_spans:spans ()
    in
    let faults = ref (Sim.Fault_plan.events plan) in
    let rec fire time =
      match !faults with
      | { Sim.Fault_plan.at; what } :: rest when at <= time ->
        faults := rest;
        R.advance_to sim at;
        (match what with
        | `Crash r -> R.crash sim ~replica:r
        | `Recover r -> R.recover sim ~replica:r
        | `Join r -> R.join sim ~replica:r
        | `Leave (r, graceful) -> R.leave sim ~replica:r ~graceful);
        fire time
      | _ -> ()
    in
    let serving r = R.is_serving sim ~replica:r && not (R.is_down sim ~replica:r) in
    List.iter
      (fun { Sim.Workload.at; replica; obj; op } ->
        fire at;
        R.advance_to sim at;
        if serving replica then ignore (R.op sim ~replica ~obj op))
      steps;
    fire plan.Sim.Fault_plan.horizon;
    R.advance_to sim plan.Sim.Fault_plan.horizon;
    (try R.run_until_quiescent ~max_events:50_000 sim with Sim.Runner.Divergence _ -> ());
    for obj = 0 to objects - 1 do
      for r = 0 to capacity - 1 do
        if serving r then ignore (R.op sim ~replica:r ~obj Op.Read)
      done
    done;
    (capacity, sim)

  (* the runner's witness, lag histogram and Visible spans against what
     the list witness gives on the run's own log *)
  let agrees ~spans (capacity, sim) =
    let oracle = List_witness.create ~n:capacity in
    let at = Hashtbl.create 64 in
    let stream = ref [] in
    List.iter
      (fun (e : Sim.Node.Log.entry) ->
        match e.Sim.Node.Log.ev with
        | Event.Do d ->
          let on_new i ~obj =
            let t0, origin = Hashtbl.find at i in
            if origin <> d.Event.replica then
              stream := (i, d.Event.replica, obj, t0, e.Sim.Node.Log.at) :: !stream
          in
          let j = List_witness.add ~on_new oracle d e.Sim.Node.Log.wit in
          Hashtbl.replace at j (e.Sim.Node.Log.at, d.Event.replica)
        | _ -> ())
      (Sim.Node.Log.entries (R.log sim));
    let stream = List.rev !stream in
    let same_lag () =
      let h = Histogram.create () in
      List.iter (fun (_, _, _, t0, t) -> Histogram.observe h (t -. t0)) stream;
      let summary h =
        (Histogram.count h, Histogram.sum h, Histogram.min_value h, Histogram.max_value h,
         Histogram.percentiles h)
      in
      summary h = summary (R.visibility_lag sim)
      || Histogram.count h = 0 && Histogram.count (R.visibility_lag sim) = 0
    in
    let same_spans () =
      List.filter_map
        (function
          | Obs.Span.Visible v ->
            Some (v.Obs.Span.v_op, v.Obs.Span.v_observer, v.Obs.Span.v_obj, v.Obs.Span.visible_at)
          | _ -> None)
        (R.spans sim)
      = List.map (fun (i, observer, obj, _, t) -> (i, observer, obj, t)) stream
    in
    same_abstract (R.witness_abstract sim) (List_witness.abstract oracle)
    && if spans then same_spans () else same_lag ()
end

let policies =
  [|
    Sim.Net_policy.random_delay ();
    Sim.Net_policy.reliable_fifo ();
    Sim.Net_policy.lossy ~drop_p:0.2 ~dup_p:0.3 ();
    Sim.Net_policy.partitioned ~groups:(fun r -> r mod 2) ~start_at:5.0 ~heal_at:40.0 ();
  |]

let agrees_on_catalogue seed =
  let rng = Rng.create seed in
  let policy = Rng.pick_arr rng policies in
  let anti_entropy = Rng.bool rng in
  let churn = anti_entropy && Rng.chance rng 0.3 in
  let adversarial = Rng.bool rng in
  List.for_all
    (fun (e : Sim.Catalogue.entry) ->
      let (module S) = e.Sim.Catalogue.store in
      let plan, steps =
        Sim.Chaos.derive ~n:3 ~objects:2 ~ops:50 ~mix:(Sim.Catalogue.mix e) ~adversarial ~churn
          ~seed ()
      in
      List.for_all
        (fun spans ->
          if anti_entropy then
            let module St = Store.Stack.Durable (S) in
            let module D = Run (St) in
            D.agrees ~spans
              (D.run ~stack:(module St) ~spans ~seed ~objects:2 ~policy ~plan ~steps ~n:3 ())
          else
            let module Du = Store.Durable.Make (S) in
            let module D = Run (Du) in
            D.agrees ~spans
              (D.run ~recover_state:Du.recover ~spans ~seed ~objects:2 ~policy ~plan ~steps ~n:3
                 ()))
        [ true; false ])
    Sim.Catalogue.all

let prop_catalogue =
  q ~count:16 "every catalogue store, faults and policies: runner == list witness"
    (QCheck2.Gen.int_range 0 1_000_000) agrees_on_catalogue

let suite =
  ( "witness-equiv",
    [
      prop_random;
      tc "dot reported before its update is issued" test_dot_before_issue;
      prop_catalogue;
    ] )
