(** E22 — dynamic membership: bootstrap cost, availability under churn,
    and convergence with a changing replica set. The paper's model fixes
    the replica set for all time; real deployments roll nodes in and out.
    Here the set is dynamic: reserve replicas join mid-run (booting empty,
    announced by an epoch-stamped view change, bootstrapped through the
    ordinary anti-entropy digest/repair traffic) and members leave —
    gracefully (flushing first) or by vanishing mid-protocol. Three
    questions: does every store class still converge with zero violations;
    what does bootstrapping a joiner cost on the wire, held against the
    Theorem 12 floor (state transfer is made of the same messages the
    lower bound prices, so it cannot come in under it); and how much
    availability does churn cost clients — a bootstrapping joiner refuses
    reads rather than serve stale-causal answers, so refusals are
    unavailability, never wrong answers.

    Beyond the random sweep, two deterministic scenarios on the causal
    store: a {e rolling replace} (each initial member gracefully retired
    after a reserve joins — the cluster is fully re-platformed mid-run)
    and a {e flash join} (every reserve joins within one gossip interval,
    tripling the member count at a stroke). *)

open Haec
module Telemetry = Sim.Telemetry

let name = "E22"

let title = "E22: membership churn -- bootstrap cost, availability, convergence"

let seeds = List.init 12 (fun i -> i + 1)

let counter metrics name =
  match Obs.Metrics.Registry.find metrics name with
  | Some (Obs.Metrics.Registry.Counter c) -> Obs.Metrics.Counter.value c
  | Some _ | None -> 0

let latency metrics =
  match Obs.Metrics.Registry.find metrics "bootstrap.latency" with
  | Some (Obs.Metrics.Registry.Histogram h) ->
    (Obs.Metrics.Histogram.sum h, Obs.Metrics.Histogram.count h)
  | Some _ | None -> (0.0, 0)

(* Worst-case (smallest) ratio of bootstrap wire bits to the per-run
   Theorem 12 floor across a batch of outcomes: the acceptance bar is that
   state transfer never undercuts the bound it is made of. *)
let summarize outcomes =
  let conv = ref 0 in
  let joins = ref 0 and leaves = ref 0 and refused = ref 0 in
  let executed = ref 0 and offered = ref 0 in
  let boot_bytes = ref 0 in
  let lat_sum = ref 0.0 and lat_n = ref 0 in
  let min_ratio = ref infinity in
  List.iter
    (fun o ->
      if Sim.Chaos.converged o then incr conv;
      let s = o.Sim.Chaos.stats in
      joins := !joins + s.Sim.Runner.joins;
      leaves := !leaves + s.Sim.Runner.leaves;
      refused := !refused + o.Sim.Chaos.refused;
      executed := !executed + o.Sim.Chaos.ops;
      offered := !offered + o.Sim.Chaos.ops + o.Sim.Chaos.skipped;
      let bb = counter o.Sim.Chaos.metrics "sim.bootstrap_bytes" in
      boot_bytes := !boot_bytes + bb;
      let ls, ln = latency o.Sim.Chaos.metrics in
      lat_sum := !lat_sum +. ls;
      lat_n := !lat_n + ln;
      if s.Sim.Runner.joins > 0 then begin
        let exec = o.Sim.Chaos.exec in
        let k = max 1 (Telemetry.max_writes_per_replica exec) in
        let floor = Telemetry.theorem12_floor_bits ~n:3 ~s:2 ~k in
        if floor > 0.0 then
          min_ratio := Float.min !min_ratio (float_of_int (bb * 8) /. floor)
      end)
    outcomes;
  let runs = List.length outcomes in
  [
    Printf.sprintf "%d/%d" !conv runs;
    string_of_int !joins;
    string_of_int !leaves;
    string_of_int !boot_bytes;
    (if !lat_n = 0 then "-" else Tables.f1 (!lat_sum /. float_of_int !lat_n));
    string_of_int !refused;
    Printf.sprintf "%.1f%%"
      (100.0 *. float_of_int !executed /. float_of_int (max 1 !offered));
    (if !min_ratio = infinity then "-" else Tables.f1 !min_ratio);
    Tables.yes_no (!min_ratio = infinity || !min_ratio >= 1.0);
  ]

let churn_row (label, store) =
  let outcomes =
    Sim.Catalogue.run_seeds ~recovery:`Anti_entropy ~adversarial:true ~churn:true
      (Sim.Catalogue.get store) ~seeds
  in
  label :: summarize outcomes

(* The deterministic scenarios: explicit churn plans over 3 initial
   members and 3 reserves, replayed through the same harness. The
   workload (40 steps, 1.0 apart) and network schedule are seeded, so the
   rows are reproducible bit-for-bit. *)
let scenario_row label ~joins ~leaves =
  let module C = Sim.Chaos.Make (Store.Causal_mvr_store) in
  let initial = 3 and capacity = 6 and horizon = 60.0 and seed = 7 in
  let churn = { Sim.Fault_plan.initial; capacity; joins; leaves } in
  let plan = Sim.Fault_plan.make ~churn ~n:capacity ~horizon () in
  let rng = Util.Rng.create seed in
  let steps =
    Sim.Workload.generate ~rng ~n:initial ~objects:2 ~ops:40
      Sim.Workload.register_mix
  in
  let outcome =
    C.run_plan
      ~spec_of:(fun _ -> Spec.Spec.mvr)
      ~require:`Causal ~recovery:`Anti_entropy ~n:initial ~plan ~steps ~seed ()
  in
  label :: summarize [ outcome ]

let rolling_replace () =
  (* each reserve joins, then an original member gracefully retires: the
     whole initial cluster is replaced without ever dropping below three
     members *)
  scenario_row "rolling-replace"
    ~joins:
      [
        { Sim.Fault_plan.replica = 3; at = 8.0 };
        { Sim.Fault_plan.replica = 4; at = 20.0 };
        { Sim.Fault_plan.replica = 5; at = 32.0 };
      ]
    ~leaves:
      [
        { Sim.Fault_plan.replica = 0; at = 14.0; graceful = true };
        { Sim.Fault_plan.replica = 1; at = 26.0; graceful = true };
        { Sim.Fault_plan.replica = 2; at = 38.0; graceful = true };
      ]

let flash_join () =
  (* every reserve joins within one gossip interval: three empty replicas
     all bootstrap off the same three serving members at once *)
  scenario_row "flash-join"
    ~joins:
      [
        { Sim.Fault_plan.replica = 3; at = 10.0 };
        { Sim.Fault_plan.replica = 4; at = 10.5 };
        { Sim.Fault_plan.replica = 5; at = 11.0 };
      ]
    ~leaves:[]

let run ppf =
  let rows =
    List.map churn_row
      [
        ("mvr-eager", "mvr");
        ("mvr-causal", "causal");
        ("mvr-cops-deps", "cops");
        ("mvr-state-based", "state");
        ("orset", "orset");
        ("lww-register", "lww");
        ("mvr-gossip-relay", "gossip");
      ]
    @ [ rolling_replace (); flash_join () ]
  in
  Tables.print ppf ~title
    ~header:
      [
        "store / scenario"; "converged"; "joins"; "leaves"; "boot B"; "boot lat";
        "refused"; "avail"; "boot/floor"; ">= floor";
      ]
    rows;
  Tables.note ppf
    "12 adversarial+churn fault schedules per store (3 initial members, 1-2";
  Tables.note ppf
    "reserves joining mid-run, up to two leaves), plus two deterministic";
  Tables.note ppf
    "scenarios on the causal store: rolling-replace retires every initial";
  Tables.note ppf
    "member after a replacement joins; flash-join doubles the cluster inside";
  Tables.note ppf
    "one gossip interval. boot B = payload bytes delivered to bootstrapping";
  Tables.note ppf
    "joiners (the wire cost of state transfer); boot lat = join-to-serving";
  Tables.note ppf
    "time in simulated units. refused = client ops whose home replica was";
  Tables.note ppf
    "churn-unavailable (bootstrapping refuses reads rather than serve";
  Tables.note ppf
    "stale-causal answers -- unavailable, never wrong); avail = ops served";
  Tables.note ppf
    "after failover. boot/floor holds bootstrap bits against the per-run";
  Tables.note ppf
    "Theorem 12 floor min{n-2, s-1} * lg k: state transfer is made of the";
  Tables.note ppf
    "same messages the bound prices, so the ratio stays >= 1.";
  Tables.note ppf
    "Reproduce: haec_cli chaos --churn --adversarial --recovery anti-entropy"
