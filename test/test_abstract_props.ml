(* Property tests over the abstract-execution structure itself, plus viz
   smoke tests and larger soak runs. *)

open Helpers
open Haec
module A = Abstract
module Op = Model.Op

(* random valid abstract execution from a seed *)
let random_ae seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 3 in
  let len = 3 + Rng.int rng 8 in
  let counter = ref 0 in
  let h =
    Array.init len (fun _ ->
        let replica = Rng.int rng n in
        let obj = Rng.int rng 3 in
        if Rng.bool rng then begin
          incr counter;
          w_ replica obj !counter
        end
        else rd_ replica obj [])
  in
  let vis = ref [] in
  for j = 0 to len - 1 do
    for i = 0 to j - 1 do
      if Rng.chance rng 0.3 then vis := (i, j) :: !vis
    done
  done;
  Specf.with_correct_responses ~spec_of:mvr_spec (A.create ~n h ~vis:!vis)

let seed_gen = QCheck2.Gen.int_range 0 50_000

let prop_create_valid =
  q ~count:150 "create output passes check_valid" seed_gen (fun seed ->
      match A.check_valid (random_ae seed) with Ok () -> true | Error _ -> false)

let prop_prefix_valid =
  q ~count:150 "prefixes are valid abstract executions" seed_gen (fun seed ->
      let a = random_ae seed in
      let ok = ref true in
      for m = 0 to A.length a do
        match A.check_valid (A.prefix a m) with Ok () -> () | Error _ -> ok := false
      done;
      !ok)

let prop_closure_idempotent =
  q ~count:150 "transitive closure idempotent and monotone" seed_gen (fun seed ->
      let a = random_ae seed in
      let c = A.transitive_closure a in
      let cc = A.transitive_closure c in
      A.is_transitive c
      && A.vis_pairs c = A.vis_pairs cc
      && List.for_all (fun (i, j) -> A.vis c i j) (A.vis_pairs a))

let prop_prefix_of_causal_causal =
  q ~count:150 "prefix of a causally consistent execution is causal" seed_gen (fun seed ->
      let a = A.transitive_closure (random_ae seed) in
      let ok = ref true in
      for m = 0 to A.length a do
        if not (Causal.is_causally_consistent (A.prefix a m)) then ok := false
      done;
      !ok)

let prop_context_shape =
  q ~count:150 "operation contexts: same object, target last, vis subset" seed_gen
    (fun seed ->
      let a = random_ae seed in
      let ok = ref true in
      for e = 0 to A.length a - 1 do
        let ctx, target = context a e in
        let de = A.event a e in
        if target <> A.length ctx - 1 then ok := false;
        for i = 0 to A.length ctx - 1 do
          if (A.event ctx i).Model.Event.obj <> de.Model.Event.obj then ok := false
        done
      done;
      !ok)

let prop_correctness_stable_under_closure_of_correct_runs =
  (* with_correct_responses after closure yields a correct causal AE *)
  q ~count:100 "closure + recomputed responses is correct and causal" seed_gen (fun seed ->
      let a = A.transitive_closure (random_ae seed) in
      let a = Specf.with_correct_responses ~spec_of:mvr_spec a in
      Specf.is_correct ~spec_of:mvr_spec a && Causal.is_causally_consistent a)

let prop_equivalence_laws =
  q ~count:100 "equivalence: reflexive and insensitive to cross-replica interleaving"
    seed_gen (fun seed ->
      let a = random_ae seed in
      if not (A.equal_equivalent a a) then false
      else begin
        (* stable-sort H by replica: preserves per-replica order *)
        let evs = Array.to_list (A.events a) in
        let sorted =
          List.stable_sort
            (fun (d1 : Model.Event.do_event) d2 ->
              Int.compare d1.Model.Event.replica d2.Model.Event.replica)
            evs
        in
        let b = A.create ~n:(A.n_replicas a) (Array.of_list sorted) ~vis:[] in
        A.equal_equivalent a b
      end)

(* ---------- viz smoke ---------- *)

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_render_abstract () =
  let a = random_ae 3 in
  let dot = Viz.Render.abstract_to_dot ~title:"t" a in
  Alcotest.(check bool) "digraph" true (String.length dot > 20);
  Alcotest.(check bool) "has lane" true (contains dot "subgraph cluster_")

let test_render_execution () =
  let module R = Sim.Runner.Make (Store.Mvr_store) in
  let sim = R.create ~n:2 ~policy:(Sim.Net_policy.reliable_fifo ()) () in
  ignore (R.op sim ~replica:0 ~obj:0 (Op.Write (vi 1)));
  R.run_until_quiescent sim;
  let dot = Viz.Render.execution_to_dot (R.execution sim) in
  Alcotest.(check bool) "message edge drawn" true
    (contains dot "color=red")

(* ---------- soak: larger randomized runs ---------- *)

let soak (name, run) = tc ("soak: " ^ name) run

let soak_mvr () =
  let module R = Sim.Runner.Make (Store.Mvr_store) in
  let rng = Rng.create 8888 in
  let sim = R.create ~seed:8888 ~n:6 ~policy:(Sim.Net_policy.lossy ~drop_p:0.3 ()) () in
  let steps = Sim.Workload.generate ~rng ~n:6 ~objects:6 ~ops:400 Sim.Workload.register_mix in
  Sim.Workload.run
    (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
    ~advance:(R.advance_to sim) steps;
  R.run_until_quiescent sim;
  let witness = R.witness_abstract sim in
  check_ok "correct" (Specf.check_correct ~spec_of:mvr_spec witness);
  check_ok "complies" (Compliance.check (R.execution sim) witness)

let soak_causal () =
  let module R = Sim.Runner.Make (Store.Causal_mvr_store) in
  let rng = Rng.create 9999 in
  let sim =
    R.create ~seed:9999 ~n:5
      ~policy:(Sim.Net_policy.partitioned ~groups:(fun r -> r mod 2) ~heal_at:120.0 ())
      ()
  in
  let steps = Sim.Workload.generate ~rng ~n:5 ~objects:5 ~ops:400 Sim.Workload.register_mix in
  Sim.Workload.run
    (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
    ~advance:(R.advance_to sim) steps;
  R.run_until_quiescent sim;
  let witness = R.witness_abstract sim in
  check_ok "correct" (Specf.check_correct ~spec_of:mvr_spec witness);
  check_ok "causal"
    (Specf.check_correct ~spec_of:mvr_spec (A.transitive_closure witness))

let soak_theorem12_large () =
  let module T12 = Construction.Theorem12.Make (Store.Causal_mvr_store) in
  let run = T12.run_random (Rng.create 4242) ~n:12 ~s:11 ~k:256 in
  Alcotest.(check bool) "large decode ok" true run.T12.ok

(* Definition 4 conditions (1)-(2) hold by construction: on any vis
   list, backward edges included, each row of [create_unchecked] holds
   the previous event of its replica and that event's whole row, so
   read-your-writes and monotonic reads cannot fail. The simulator's
   witness passes only the edges new at each event and relies on this. *)
let prop_unchecked_closed =
  q ~count:300 "create_unchecked: rows inherit the replica's previous row; RYW, MR hold"
    seed_gen (fun seed ->
      let rng = Rng.create seed in
      let n = Rng.int_in rng 2 4 and len = Rng.int_in rng 2 30 in
      let h =
        Array.init len (fun k ->
            let replica = Rng.int rng n and obj = Rng.int rng 3 in
            if Rng.bool rng then w_ replica obj k else rd_ replica obj [])
      in
      let vis =
        List.filter
          (fun (i, j) -> i <> j)
          (List.init (Rng.int rng (3 * len)) (fun _ -> (Rng.int rng len, Rng.int rng len)))
      in
      let a = A.create_unchecked ~n h ~vis in
      let prev = Array.make n (-1) in
      let inherits = ref true in
      Array.iteri
        (fun j (d : Event.do_event) ->
          let i = prev.(d.Event.replica) in
          if i >= 0 && not (A.vis a i j && List.for_all (fun k -> A.vis a k j) (A.vis_preds a i))
          then inherits := false;
          prev.(d.Event.replica) <- j)
        h;
      let r = Consistency.Session.check a in
      !inherits
      && r.Consistency.Session.read_your_writes = Ok ()
      && r.Consistency.Session.monotonic_reads = Ok ())

let suite =
  ( "abstract-props",
    [
      prop_create_valid;
      prop_prefix_valid;
      prop_closure_idempotent;
      prop_prefix_of_causal_causal;
      prop_context_shape;
      prop_correctness_stable_under_closure_of_correct_runs;
      prop_equivalence_laws;
      tc "render abstract execution" test_render_abstract;
      tc "render execution" test_render_execution;
      soak ("mvr 400 ops, 6 replicas, lossy", soak_mvr);
      soak ("causal 400 ops, partition", soak_causal);
      soak ("theorem12 n=12 k=256", soak_theorem12_large);
      prop_unchecked_closed;
    ] )
