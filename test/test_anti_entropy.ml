(* Protocol-level anti-entropy: the digest/repair transformer, adversarial
   fault plans, chaos convergence without oracle retransmission, and the
   delta-debugging shrinker. *)

open Helpers
open Haec
module Fault_plan = Sim.Fault_plan
module Vclock = Clock.Vclock
module AE = Store.Anti_entropy.Make (Store.Mvr_store)

(* the traffic both replicas counted, summed as a driver does *)
let gossip_of states =
  let gs = Store.Store_intf.fresh_gossip_stats () in
  List.iter (fun st -> Store.Store_intf.add_gossip_stats gs (AE.gossip_stats st)) states;
  gs

(* ---------- the protocol, by hand ---------- *)

(* Two replicas, one lost update: the digest exchange must detect the gap
   and push exactly the missing payload — no runner, no oracle. *)
let test_digest_repair_exchange () =
  let a = AE.init ~n:2 ~me:0 and b = AE.init ~n:2 ~me:1 in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 1)) in
  let a, p1 = AE.send a in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 2)) in
  let a, _lost = AE.send a in
  (* the second broadcast vanishes; b only ever hears the first *)
  let b = AE.receive b ~sender:0 p1 in
  Alcotest.(check int) "b applied the first update" 1 (Vclock.get (AE.have b) 0);
  (* a gossip tick queues a digest on b; a hears it and sees b is behind *)
  let b = AE.tick b in
  Alcotest.(check bool) "digest pending after tick" true (AE.has_pending b);
  let b, digest = AE.send b in
  let a = AE.receive a ~sender:1 digest in
  Alcotest.(check bool) "repair queued at a" true (AE.has_pending a);
  let a, repair = AE.send a in
  let b = AE.receive b ~sender:0 repair in
  Alcotest.(check bool) "vectors converged" true
    (Vclock.equal (AE.have a) (AE.have b));
  Alcotest.(check int) "no orphans" 0 (AE.orphans b);
  Alcotest.(check bool) "system settled" true (AE.settled [| a; b |]);
  let _, ra, _ = AE.do_op a ~obj:0 Model.Op.Read in
  let _, rb, _ = AE.do_op b ~obj:0 Model.Op.Read in
  Alcotest.(check bool) "reads agree" true (ra = rb);
  let gs = gossip_of [ a; b ] in
  Alcotest.(check bool) "digest traffic counted" true
    (gs.Store.Store_intf.digests > 0 && gs.Store.Store_intf.digest_bytes > 0);
  Alcotest.(check bool) "repair traffic counted" true
    (gs.Store.Store_intf.repairs > 0 && gs.Store.Store_intf.repair_bytes > 0);
  Alcotest.(check bool) "repair payloads applied" true
    (gs.Store.Store_intf.repair_applied > 0)

(* Updates arriving out of order are parked as orphans and applied in
   per-origin sequence order once the gap fills. *)
let test_out_of_order_buffered () =
  let a = AE.init ~n:2 ~me:0 in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 1)) in
  let a, p1 = AE.send a in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 2)) in
  let _, p2 = AE.send a in
  let b = AE.init ~n:2 ~me:1 in
  let b = AE.receive b ~sender:0 p2 in
  Alcotest.(check int) "second update parked" 1 (AE.orphans b);
  Alcotest.(check int) "nothing applied yet" 0 (Vclock.get (AE.have b) 0);
  let b = AE.receive b ~sender:0 p1 in
  Alcotest.(check int) "gap filled, cascade applied both" 2
    (Vclock.get (AE.have b) 0);
  Alcotest.(check int) "no orphans left" 0 (AE.orphans b)

(* Duplicate deliveries are absorbed by the log: state unchanged, the
   duplicate counted. *)
let test_duplicates_dropped () =
  let a = AE.init ~n:2 ~me:0 in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 7)) in
  let _, p1 = AE.send a in
  let b = AE.init ~n:2 ~me:1 in
  let b = AE.receive b ~sender:0 p1 in
  let b' = AE.receive b ~sender:0 p1 in
  Alcotest.(check int) "vector unchanged by the duplicate"
    (Vclock.get (AE.have b) 0)
    (Vclock.get (AE.have b') 0);
  Alcotest.(check int) "no orphans" 0 (AE.orphans b');
  let gs = gossip_of [ a; b' ] in
  Alcotest.(check bool) "duplicate counted" true
    (gs.Store.Store_intf.dup_payloads > 0)

(* The per-peer push backoff must be forgiven the moment a peer's digest
   shows new progress: a digest that merely repeats a known-stale view is
   suppressed (backoff doubling), but one whose clock has advanced — the
   peer applied something since we last looked — resets the backoff and
   queues a push immediately instead of waiting out the old deadline.
   Pinned to wire v1: under v2 a push optimistically credits the peer, so
   the re-push this test drives is replaced by the requester path (covered
   by the wire-v2 protocol tests). *)
let test_push_backoff_forgiven_on_progress () =
  let a, b =
    Wire.Version.scoped Wire.Version.V1 (fun () ->
        (AE.init ~n:2 ~me:0, AE.init ~n:2 ~me:1))
  in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 1)) in
  let a, p1 = AE.send a in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 2)) in
  let a, _lost2 = AE.send a in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 3)) in
  let a, _lost3 = AE.send a in
  (* all three broadcasts are lost; b's empty digest solicits a push *)
  let b = AE.tick b in
  let _, d0 = AE.send b in
  let a = AE.receive a ~sender:1 d0 in
  Alcotest.(check bool) "first stale digest queues a push" true
    (AE.has_pending a);
  let a, _lost_push = AE.send a in
  (* the same stale digest again (a duplicate delivery): the per-peer
     backoff suppresses the redundant push *)
  let a = AE.receive a ~sender:1 d0 in
  Alcotest.(check bool) "repeated stale digest backed off" false
    (AE.has_pending a);
  (* the peer finally makes progress (the first payload lands late); its
     next digest has advanced beyond the view we recorded, so the backoff
     must reset and a push fire immediately — not at the old deadline *)
  let b = AE.receive b ~sender:0 p1 in
  let b = AE.tick b in
  let _, d1 = AE.send b in
  let a = AE.receive a ~sender:1 d1 in
  Alcotest.(check bool) "digest showing progress resets the backoff" true
    (AE.has_pending a)

(* ---------- adversarial fault plans ---------- *)

(* The adversarial draws are appended strictly after the baseline ones, so
   an adversarial plan from the same seed shares the baseline fields
   byte-for-byte — oracle baselines stay frozen. *)
let test_adversarial_extends_baseline () =
  List.iter
    (fun seed ->
      let base =
        Fault_plan.random (Util.Rng.create seed) ~n:4 ~horizon:50.0 ()
      in
      let adv =
        Fault_plan.random (Util.Rng.create seed) ~n:4 ~horizon:50.0
          ~adversarial:true ()
      in
      Alcotest.(check bool) "same crash windows" true
        (base.Fault_plan.crashes = adv.Fault_plan.crashes);
      Alcotest.(check bool) "same link faults" true
        (base.Fault_plan.links = adv.Fault_plan.links);
      Alcotest.(check bool) "same corruption window" true
        (base.Fault_plan.corruption = adv.Fault_plan.corruption);
      Alcotest.(check bool) "baseline has no adversarial faults" true
        (base.Fault_plan.dup = None
        && base.Fault_plan.reorder = None
        && base.Fault_plan.dead = []))
    (List.init 20 (fun i -> i + 1))

let test_dead_link_validation () =
  let bad f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  (* dead links without ~n: connectivity can't be checked *)
  bad (fun () ->
      Fault_plan.make
        ~dead:[ { src = 0; dst = 1; from_ = 0.0 } ]
        ~horizon:10.0 ());
  (* both directions of the only edge dead: network disconnected *)
  bad (fun () ->
      Fault_plan.make
        ~dead:
          [ { src = 0; dst = 1; from_ = 0.0 }; { src = 1; dst = 0; from_ = 0.0 } ]
        ~n:2 ~horizon:10.0 ());
  (* with a third replica the dead 0-1 edge leaves the graph connected *)
  let plan =
    Fault_plan.make
      ~dead:
        [ { src = 0; dst = 1; from_ = 0.0 }; { src = 1; dst = 0; from_ = 2.0 } ]
      ~n:3 ~horizon:10.0 ()
  in
  Alcotest.(check bool) "dead link active from its start" true
    (Fault_plan.link_dead plan ~src:0 ~dst:1 ~at:1.0);
  Alcotest.(check bool) "other direction not yet dead" false
    (Fault_plan.link_dead plan ~src:1 ~dst:0 ~at:1.0);
  Alcotest.(check bool) "dead links never heal" true
    (Fault_plan.active plan ~now:1e9)

(* Regression: mutate must never return its input. The zeroing shape
   applied to an already-zero run used to be the identity; it now falls
   back to a byte flip. *)
let test_mutate_never_identity () =
  let rng = Util.Rng.create 99 in
  List.iter
    (fun len ->
      let s = String.make len '\000' in
      for _ = 1 to 200 do
        if Fault_plan.mutate rng s = s then
          Alcotest.failf "mutate returned its input on %d zero bytes" len
      done)
    [ 1; 2; 3; 5; 8; 16 ]

(* ---------- chaos under anti-entropy recovery ---------- *)

(* Every store class must converge with the oracle off: all losses are
   permanent (crashed in-flight traffic, link drops, dead links) and the
   digest/repair protocol is the only way bytes come back. Adversarial
   plans add duplication, reordering, and permanently dead links. *)
let ae_chaos_seeds name (module S : Store.Store_intf.S) ~require spec mix seeds =
  tc name (fun () ->
      let module C = Sim.Chaos.Make (S) in
      List.iter
        (fun seed ->
          let o =
            C.run ~spec_of:(fun _ -> spec) ~mix ~require
              ~recovery:`Anti_entropy ~adversarial:true ~seed ()
          in
          if not (Sim.Chaos.converged o) then
            Alcotest.failf "seed %d: %a" seed Sim.Chaos.pp_outcome o)
        seeds)

let seeds lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

let test_ae_run_exercises_protocol () =
  (* an anti-entropy run actually loses traffic for good and repairs it
     over the wire — the convergence above is not vacuous *)
  let module C = Sim.Chaos.Make (Store.Mvr_store) in
  let lost = ref 0 and rounds = ref 0 and repaired = ref 0 in
  List.iter
    (fun seed ->
      let o = C.run ~recovery:`Anti_entropy ~adversarial:true ~seed () in
      Alcotest.(check int) "the oracle never retransmits under anti-entropy" 0
        o.Sim.Chaos.stats.Sim.Runner.retransmitted;
      lost := !lost + o.Sim.Chaos.stats.Sim.Runner.lost_permanent;
      rounds := !rounds + o.Sim.Chaos.stats.Sim.Runner.gossip_rounds;
      let counter name =
        Obs.Metrics.Counter.value
          (Obs.Metrics.Registry.counter o.Sim.Chaos.metrics name)
      in
      repaired := !repaired + counter "gossip.repair_applied";
      Alcotest.(check bool) "digest bytes on the wire" true
        (counter "gossip.digest_bytes" > 0))
    (seeds 1 5);
  Alcotest.(check bool) "losses were permanent" true (!lost > 0);
  Alcotest.(check bool) "gossip rounds fired" true (!rounds > 0);
  Alcotest.(check bool) "repairs actually applied" true (!repaired > 0)

let test_ae_deterministic () =
  let module C = Sim.Chaos.Make (Store.Mvr_store) in
  let a = C.run ~recovery:`Anti_entropy ~adversarial:true ~seed:3 ()
  and b = C.run ~recovery:`Anti_entropy ~adversarial:true ~seed:3 () in
  Alcotest.(check bool) "same trace from the same seed" true
    (List.for_all2
       (fun x y ->
         Format.asprintf "%a" Model.Event.pp x
         = Format.asprintf "%a" Model.Event.pp y)
       (Model.Execution.events a.Sim.Chaos.exec)
       (Model.Execution.events b.Sim.Chaos.exec));
  Alcotest.(check int) "same permanent losses"
    a.Sim.Chaos.stats.Sim.Runner.lost_permanent
    b.Sim.Chaos.stats.Sim.Runner.lost_permanent

(* ---------- the shrinker ---------- *)

(* A seeded `Occ failure (Theorem 6 guarantees chaos finds one) must
   minimize to a small still-failing repro, bit-identically at any domain
   count. *)
let shrink_setup =
  lazy
    (let module C = Sim.Chaos.Make (Store.Mvr_store) in
     let ops = 24 in
     let failing =
       List.find_opt
         (fun seed ->
           not (Sim.Chaos.converged (C.run ~ops ~require:`Occ ~seed ())))
         (seeds 1 40)
     in
     match failing with
     | None -> Alcotest.fail "no occ-failing seed in 1..40 — chaos got too tame"
     | Some seed ->
       let plan, steps = Sim.Chaos.derive ~ops ~seed () in
       let run ~plan ~steps =
         C.run_plan ~require:`Occ ~n:3 ~plan ~steps ~seed ()
       in
       (seed, plan, steps, run))

let test_shrink_minimizes () =
  let _seed, plan, steps, run = Lazy.force shrink_setup in
  match Sim.Shrink.minimize ~domains:2 ~run ~plan ~steps () with
  | None -> Alcotest.fail "minimize lost the failure"
  | Some r ->
    Alcotest.(check bool) "minimized repro still fails" true
      (not (Sim.Chaos.converged r.Sim.Shrink.outcome));
    Alcotest.(check bool) "minimized to at most 10 ops" true
      (List.length r.Sim.Shrink.steps <= 10);
    Alcotest.(check bool) "did not grow" true
      (List.length r.Sim.Shrink.steps <= List.length steps);
    (* local minimum: replaying the repro's own inputs still fails *)
    Alcotest.(check bool) "repro replays to the same failure" true
      (not (Sim.Chaos.converged (run ~plan:r.Sim.Shrink.plan ~steps:r.Sim.Shrink.steps)))

let test_shrink_parallel_deterministic () =
  let _seed, plan, steps, run = Lazy.force shrink_setup in
  let j1 = Sim.Shrink.minimize ~domains:1 ~run ~plan ~steps () in
  let j4 = Sim.Shrink.minimize ~domains:4 ~run ~plan ~steps () in
  match (j1, j4) with
  | Some a, Some b ->
    Alcotest.(check bool) "same plan at -j 1 and -j 4" true
      (a.Sim.Shrink.plan = b.Sim.Shrink.plan);
    Alcotest.(check bool) "same steps at -j 1 and -j 4" true
      (a.Sim.Shrink.steps = b.Sim.Shrink.steps);
    Alcotest.(check int) "same rounds" a.Sim.Shrink.rounds b.Sim.Shrink.rounds;
    Alcotest.(check int) "same tried" a.Sim.Shrink.tried b.Sim.Shrink.tried
  | _ -> Alcotest.fail "minimize disagreed about failing at all"

let test_shrink_none_on_converging_run () =
  let module C = Sim.Chaos.Make (Store.Mvr_store) in
  let converging =
    List.find
      (fun seed -> Sim.Chaos.converged (C.run ~seed ()))
      (seeds 1 10)
  in
  let plan, steps = Sim.Chaos.derive ~seed:converging () in
  let run ~plan ~steps =
    C.run_plan ~n:3 ~plan ~steps ~seed:converging ()
  in
  Alcotest.(check bool) "nothing to shrink" true
    (Sim.Shrink.minimize ~run ~plan ~steps () = None)

(* The gossip counters claim no more item bytes than the payloads every
   replica actually sent: a crashed replica's WAL replay re-encodes its
   old sends, and those must not count as traffic. *)
let test_counters_bounded_by_payload () =
  let outcomes =
    Sim.Catalogue.run_seeds ~recovery:`Anti_entropy ~adversarial:true
      (Sim.Catalogue.get "causal") ~seeds:(seeds 1 12)
  in
  List.iter
    (fun o ->
      let counter name =
        Obs.Metrics.Counter.value
          (Obs.Metrics.Registry.counter o.Sim.Chaos.metrics name)
      in
      let claimed =
        List.fold_left
          (fun acc kind -> acc + counter ("gossip." ^ kind ^ "_bytes"))
          0
          [ "update"; "digest"; "repair"; "request"; "membership" ]
      in
      let sent =
        List.fold_left
          (fun acc m -> acc + String.length m.Model.Message.payload)
          0
          (Model.Execution.messages_sent o.Sim.Chaos.exec)
      in
      if claimed > sent then
        Alcotest.failf "seed %d: gossip counters claim %d B, payloads sent %d B"
          o.Sim.Chaos.seed claimed sent)
    outcomes

let suite =
  ( "anti-entropy",
    [
      tc "digest/repair closes a loss by hand" test_digest_repair_exchange;
      tc "out-of-order updates buffered, applied in order" test_out_of_order_buffered;
      tc "duplicate deliveries dropped" test_duplicates_dropped;
      tc "push backoff forgiven when a digest shows progress"
        test_push_backoff_forgiven_on_progress;
      tc "adversarial plans extend the baseline draws" test_adversarial_extends_baseline;
      tc "dead links validated for connectivity" test_dead_link_validation;
      tc "mutate is never the identity" test_mutate_never_identity;
      ae_chaos_seeds "ae chaos: mvr converges on 10 adversarial seeds"
        (module Store.Mvr_store) ~require:`Correct Specf.mvr
        Sim.Workload.register_mix (seeds 1 10);
      ae_chaos_seeds "ae chaos: causal mvr converges on 6 adversarial seeds"
        (module Store.Causal_mvr_store) ~require:`Causal Specf.mvr
        Sim.Workload.register_mix (seeds 11 16);
      ae_chaos_seeds "ae chaos: or-set converges on 6 adversarial seeds"
        (module Store.Orset_store) ~require:`Correct Specf.orset
        Sim.Workload.orset_mix (seeds 17 22);
      ae_chaos_seeds "ae chaos: lww converges on 6 adversarial seeds"
        (module Store.Lww_store) ~require:`Converge Specf.rw_register
        Sim.Workload.register_mix (seeds 23 28);
      tc "ae chaos exercises permanent loss and repair" test_ae_run_exercises_protocol;
      tc "ae chaos deterministic in the seed" test_ae_deterministic;
      tc "gossip counters within the payload bytes sent" test_counters_bounded_by_payload;
      tc "shrink minimizes an occ failure to <= 10 ops" test_shrink_minimizes;
      tc "shrink bit-identical across domain counts" test_shrink_parallel_deterministic;
      tc "shrink returns None when the run converges" test_shrink_none_on_converging_run;
    ] )
