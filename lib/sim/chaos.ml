open Haec_util
open Haec_model
open Haec_spec
open Haec_wire
module Obs = Haec_obs.Metrics

(* Which checks a store class is on the hook for. Every store must stay
   well-formed, comply with its witness, and converge post-heal; most also
   keep the witness correct. [`Causal] adds the causal-consistency check —
   only stores with causal delivery guarantee it under the arbitrary
   re-delivery orders faults induce. [`Occ] additionally requires
   OCC — which Theorem 6 shows no available store satisfies in all
   executions, so chaos schedules reliably find a failing seed: the
   principled known-failing target the shrinker is smoke-tested on. *)
type level = [ `Converge | `Correct | `Causal | `Occ ]

type outcome = {
  seed : int;
  plan : Fault_plan.t;
  steps : Workload.step list;
  require : level;
  recovery : Runner.recovery;
  stats : Runner.stats;
  metrics : Haec_obs.Metrics.Registry.t;
  spans : Haec_obs.Span.t list;
  exec : Execution.t;
  ops : int;
  skipped : int;
  refused : int;
      (** steps whose home replica was churn-unavailable — a bootstrapping
          joiner (refuses reads until caught up) or already departed — and
          the client had to fail over or give up *)
  horizon : float;
  quiesced_at : float;
  result : (Checks.report, string) result;
}

let required level =
  [ "well-formed"; "complies"; "eventual" ]
  @ (match level with `Converge -> [] | `Correct | `Causal | `Occ -> [ "correct" ])
  @ (match level with `Causal | `Occ -> [ "causal" ] | `Converge | `Correct -> [])
  @ match level with `Occ -> [ "occ" ] | `Converge | `Correct | `Causal -> []

let failures o =
  match o.result with
  | Ok r ->
    let names = required o.require in
    List.filter (fun (name, _) -> List.mem name names) (Checks.failures r)
  | Error e -> [ ("run", e) ]

let converged o = failures o = []

let pp_outcome ppf o =
  let s = o.stats in
  Format.fprintf ppf
    "@[<v>seed %d: %s@,%a\
     crashes=%d recoveries=%d dropped=%d retransmitted=%d corrupt_rejected=%d \
     lost_permanent=%d gossip_rounds=%d joins=%d leaves=%d@,\
     %d ops (%d skipped: nobody serving; %d refused at a churned home), %d events@]"
    o.seed
    (if converged o then "converged" else "FAILED")
    Fault_plan.pp o.plan s.Runner.crashes s.Runner.recoveries s.Runner.dropped
    s.Runner.retransmitted s.Runner.corrupt_rejected s.Runner.lost_permanent
    s.Runner.gossip_rounds s.Runner.joins s.Runner.leaves o.ops o.skipped o.refused
    (Execution.length o.exec);
  match o.result with
  | Ok r ->
    List.iter
      (fun (name, m) -> Format.fprintf ppf "@,%s: %s" name m)
      (Checks.failures r)
  | Error e -> Format.fprintf ppf "@,%s" e

(* The seed fully determines a run's inputs: the fault plan, then the
   client workload, drawn from one generator in that order (the draw order
   is part of the reproducibility contract — a dumped seed must rebuild
   the same run forever). The shrinker edits the resulting pair directly
   and replays it through [run_plan]. *)
let derive ?(n = 3) ?(objects = 2) ?(ops = 40) ?(mix = Workload.register_mix)
    ?(adversarial = false) ?(churn = false) ~seed () =
  let rng = Rng.create seed in
  (* client steps are spaced 1.0 apart, so the fault horizon leaves room
     for every window to open during the workload and heal after it *)
  let horizon = float_of_int ops +. 10.0 in
  let plan = Fault_plan.random rng ~n ~horizon ~adversarial ~churn () in
  (* the workload is drawn over the initial members only (reserve ids have
     no clients of their own) and, crucially, after every plan draw — so
     the ~churn:false steps are bit-identical to the pre-churn ones *)
  let steps = Workload.generate ~rng ~n ~objects ~ops mix in
  (plan, steps)

(* One recovery stack: a durable store driven through a runner, with the
   gossip hooks (or their absence) baked in. Instantiated twice per store —
   the omniscient [`Oracle] baseline and the protocol-level
   [`Anti_entropy] stack. *)
module Drive (DS : sig
  include Haec_store.Store_intf.S

  val recover : state -> state

  val recovery : Runner.recovery

  val gossip : ((state -> state) * (state array -> bool)) option

  val hooks : state Runner.membership_hooks option

  val classify : (string -> string) option

  val gossip_stats : (state -> Haec_store.Store_intf.gossip_stats) option
end) =
struct
  module R = Runner.Make (DS)

  (* First replica at or after [r] that can serve, if any — a client whose
     home replica is down or churned away fails over to another one
     (availability!). Scans the whole id space: a joined-and-promoted
     reserve is as good a host as anyone. *)
  let failover sim ~capacity r =
    let rec go k = if k = capacity then None else
      let r' = (r + k) mod capacity in
      if R.is_serving sim ~replica:r' && not (R.is_down sim ~replica:r') then Some r'
      else go (k + 1)
    in
    go 0

  let run_plan ?(objects = 2) ?(spec_of = fun (_ : int) -> Spec.mvr) ?policy
      ?(max_events = 200_000) ?(require = `Correct) ?(gossip_interval = 2.0) ~n ~plan
      ~steps ~seed () =
    let policy =
      match policy with Some p -> p | None -> Net_policy.random_delay ()
    in
    let horizon = plan.Fault_plan.horizon in
    (* with churn, [n] is the initial member count and the id space grows
       to the plan's capacity; the reserve ids boot empty mid-run *)
    let capacity, initial =
      match plan.Fault_plan.churn with
      | None -> (n, n)
      | Some c ->
        if c.Fault_plan.initial <> n then
          invalid_arg
            (Printf.sprintf "Chaos.run_plan: plan churn has initial=%d but n=%d"
               c.Fault_plan.initial n);
        (match DS.recovery with
        | `Anti_entropy -> ()
        | `Oracle ->
          (* a joiner bootstraps over digest/repair, and a crash-leaver's
             lost deliveries are lost for good — both are outside the
             omniscient-retransmission contract *)
          invalid_arg "Chaos.run_plan: churn requires `Anti_entropy recovery");
        (c.Fault_plan.capacity, c.Fault_plan.initial)
    in
    let gossip =
      match DS.gossip with
      | None -> None
      | Some (tick, settled) -> Some (gossip_interval, tick, settled)
    in
    let sim =
      R.create ~seed ~n:capacity ~initial ?hooks:DS.hooks ?classify:DS.classify ~policy
        ~faults:plan ~recovery:DS.recovery ?gossip
        ~recover_state:(fun ~replica:_ st -> DS.recover st)
        ()
    in
    let skipped = ref 0 in
    let executed = ref 0 in
    let refused = ref 0 in
    (* interleave the fault schedule with the client workload by time *)
    let faults = ref (Fault_plan.events plan) in
    let fire_up_to time =
      let rec go () =
        match !faults with
        | { Fault_plan.at; what } :: rest when at <= time ->
          faults := rest;
          R.advance_to sim at;
          (match what with
          | `Crash r -> R.crash sim ~replica:r
          | `Recover r -> R.recover sim ~replica:r
          | `Join r -> R.join sim ~replica:r
          | `Leave (r, graceful) -> R.leave sim ~replica:r ~graceful);
          go ()
        | _ -> ()
      in
      go ()
    in
    List.iter
      (fun (s : Workload.step) ->
        fire_up_to s.at;
        R.advance_to sim s.at;
        if
          R.is_member sim ~replica:s.replica
          && not (R.is_serving sim ~replica:s.replica)
          || not (R.is_member sim ~replica:s.replica)
             && s.replica < initial (* departed home, not an unjoined reserve *)
        then incr refused;
        match failover sim ~capacity s.replica with
        | None -> incr skipped (* nobody is serving: no one to take the op *)
        | Some replica ->
          incr executed;
          ignore (R.op sim ~replica ~obj:s.obj s.op))
      steps;
    (* past the workload: let the remaining faults strike and heal *)
    fire_up_to horizon;
    R.advance_to sim horizon;
    let finish () =
      R.run_until_quiescent ~max_events sim;
      let quiescent_at = List.length (Execution.do_events (R.execution sim)) in
      (* the convergence audit reads every object at every serving member —
         bootstrapping joiners refuse reads and departed ids have no one to
         ask, so neither takes part *)
      let readers =
        List.filter
          (fun r -> R.is_serving sim ~replica:r)
          (Membership.members (R.membership sim))
      in
      for obj = 0 to objects - 1 do
        List.iter (fun replica -> ignore (R.op sim ~replica ~obj Op.Read)) readers
      done;
      let exec = R.execution sim in
      let witness = R.witness_abstract sim in
      let report = Checks.validate ~spec_of ~quiescent_at exec witness in
      (* fold post-quiescence read agreement (Lemma 3) into the eventual
         check, as the experiment harness does *)
      match
        ( report.Checks.eventual,
          Haec_consistency.Eventual.check_reads_agree exec
            ~suffix:(List.length readers * objects) )
      with
      | Ok (), (Error _ as e) -> { report with Checks.eventual = e }
      | _ -> report
    in
    let result =
      match finish () with
      | report -> Ok report
      | exception Runner.Divergence { in_flight; pending; budget } ->
        Error
          (Printf.sprintf
             "diverged: %d deliveries in flight, %d replicas pending after %d events"
             in_flight pending budget)
      | exception Wire.Decoder.Malformed m ->
        (* must never happen: corruption is rejected inside the runner *)
        Error (Printf.sprintf "corruption escaped the frame check: %s" m)
    in
    let metrics = R.metrics sim in
    (match DS.gossip_stats with
    | None -> ()
    | Some stats_of ->
      (* digest/repair traffic of the anti-entropy protocol, summed over
         every id's replica, alongside the runner's wire telemetry so E21
         can hold repair bytes against the Theorem 12 floor *)
      let gs = Haec_store.Store_intf.fresh_gossip_stats () in
      for r = 0 to capacity - 1 do
        Haec_store.Store_intf.add_gossip_stats gs (stats_of (R.replica_state sim r))
      done;
      let c name v = Obs.Counter.add (Obs.Registry.counter metrics name) v in
      c "gossip.digests" gs.Haec_store.Store_intf.digests;
      c "gossip.digest_bytes" gs.Haec_store.Store_intf.digest_bytes;
      c "gossip.repairs" gs.Haec_store.Store_intf.repairs;
      c "gossip.repair_bytes" gs.Haec_store.Store_intf.repair_bytes;
      c "gossip.requests" gs.Haec_store.Store_intf.requests;
      c "gossip.request_bytes" gs.Haec_store.Store_intf.request_bytes;
      c "gossip.updates" gs.Haec_store.Store_intf.updates;
      c "gossip.update_bytes" gs.Haec_store.Store_intf.update_bytes;
      c "gossip.dup_payloads" gs.Haec_store.Store_intf.dup_payloads;
      c "gossip.repair_applied" gs.Haec_store.Store_intf.repair_applied;
      c "gossip.memberships" gs.Haec_store.Store_intf.memberships;
      c "gossip.membership_bytes" gs.Haec_store.Store_intf.membership_bytes;
      c "gossip.digest_deltas" gs.Haec_store.Store_intf.digest_deltas;
      c "gossip.digests_elided" gs.Haec_store.Store_intf.digests_elided);
    {
      seed;
      plan;
      steps;
      require;
      recovery = DS.recovery;
      stats = R.stats sim;
      metrics;
      spans = R.spans sim;
      exec = R.execution sim;
      ops = !executed;
      skipped = !skipped;
      refused = !refused;
      horizon;
      quiesced_at = R.now sim;
      result;
    }
end

module Make (S : Haec_store.Store_intf.S) = struct
  module Oracle_drive = Drive (struct
    include Haec_store.Durable.Make (S)

    let recovery = `Oracle

    let gossip = None

    let hooks = None

    let classify = None

    let gossip_stats = None
  end)

  (* the same replica stack the live cluster runs *)
  module St = Haec_store.Stack.Durable (S)

  module Ae_drive = Drive (struct
    include St

    let recovery = `Anti_entropy

    let gossip = Some (St.tick, St.settled)

    let hooks =
      Some
        {
          Runner.progress = St.progress;
          on_join = St.announce_join;
          on_leave =
            (fun ~epoch ~graceful st ->
              if graceful then St.announce_leave ~epoch st else st);
        }

    let classify = Some Haec_store.Anti_entropy.classify

    let gossip_stats = Some St.gossip_stats
  end)

  let run_plan ?objects ?spec_of ?policy ?max_events ?require
      ?(recovery = `Oracle) ?gossip_interval ~n ~plan ~steps ~seed () =
    match recovery with
    | `Oracle ->
      Oracle_drive.run_plan ?objects ?spec_of ?policy ?max_events ?require
        ?gossip_interval ~n ~plan ~steps ~seed ()
    | `Anti_entropy ->
      Ae_drive.run_plan ?objects ?spec_of ?policy ?max_events ?require
        ?gossip_interval ~n ~plan ~steps ~seed ()

  let run ?(n = 3) ?(objects = 2) ?(ops = 40) ?spec_of ?(mix = Workload.register_mix)
      ?policy ?max_events ?require ?recovery ?adversarial ?churn ?gossip_interval
      ~seed () =
    let plan, steps = derive ~n ~objects ~ops ~mix ?adversarial ?churn ~seed () in
    run_plan ~objects ?spec_of ?policy ?max_events ?require ?recovery ?gossip_interval
      ~n ~plan ~steps ~seed ()

  (* Runs are deterministic in their seed and share no state, so a sweep
     fans out over domains; outcomes come back in seed order regardless of
     [?domains] (see the contract in [Haec_util.Par]). *)
  let run_seeds ?n ?objects ?ops ?spec_of ?mix ?policy ?max_events ?require ?recovery
      ?adversarial ?churn ?gossip_interval ?domains ~seeds () =
    Par.map_list ?domains
      (fun seed ->
        run ?n ?objects ?ops ?spec_of ?mix ?policy ?max_events ?require ?recovery
          ?adversarial ?churn ?gossip_interval ~seed ())
      seeds
end
