(** E18 — crash-recovery chaos: convergence survives faults the paper's
    model abstracts away. The paper assumes replicas never fail and every
    message is delivered (Section 2); this experiment injects what that
    assumption hides — crashes with volatile-state loss (recovered by
    checkpoint replay), link faults that heal, and byte-level corruption —
    and checks that once every fault heals, quiescent convergence
    (Definition 17 / Lemma 3) still holds. It also makes Theorem 6
    quantitative: the adversarial re-delivery orders chaos induces are
    exactly where OCC violations show up, even for the causally consistent
    stores. *)

open Haec

let name = "E18"

let title = "E18: convergence under crash-recovery chaos (seeded fault schedules)"

let seeds = List.init 12 (fun i -> i + 1)

let chaos_row (label, store) =
  let conv = ref 0 in
  let crashes = ref 0 and dropped = ref 0 and retrans = ref 0 and corrupt = ref 0 in
  let causal_viol = ref 0 and occ_viol = ref 0 in
  let lag_p99 = ref 0.0 in
  (* the seeds fan out over domains; counters fold sequentially after *)
  let outcomes = Sim.Catalogue.run_seeds (Sim.Catalogue.get store) ~seeds in
  List.iter
    (fun o ->
      if Sim.Chaos.converged o then incr conv;
      (* staleness under faults: worst p99 visibility lag across schedules *)
      (match Obs.Metrics.Registry.find o.Sim.Chaos.metrics "visibility.lag" with
      | Some (Obs.Metrics.Registry.Histogram h) ->
        let p = Obs.Metrics.Histogram.quantile h 0.99 in
        if not (Float.is_nan p) then lag_p99 := Float.max !lag_p99 p
      | Some _ | None -> ());
      (match o.Sim.Chaos.result with
      | Ok r ->
        (match r.Sim.Checks.causal with Error _ -> incr causal_viol | Ok () -> ());
        (match r.Sim.Checks.occ with Error _ -> incr occ_viol | Ok () -> ())
      | Error _ -> ());
      let s = o.Sim.Chaos.stats in
      crashes := !crashes + s.Sim.Runner.crashes;
      dropped := !dropped + s.Sim.Runner.dropped;
      retrans := !retrans + s.Sim.Runner.retransmitted;
      corrupt := !corrupt + s.Sim.Runner.corrupt_rejected)
    outcomes;
  [
    label;
    Printf.sprintf "%d/%d" !conv (List.length seeds);
    string_of_int !crashes;
    string_of_int !dropped;
    string_of_int !retrans;
    string_of_int !corrupt;
    Printf.sprintf "%d" !causal_viol;
    Printf.sprintf "%d" !occ_viol;
    Tables.f1 !lag_p99;
  ]

let run ppf =
  let rows =
    List.map chaos_row
      [
        ("mvr-eager", "mvr");
        ("mvr-causal", "causal");
        ("mvr-cops-deps", "cops");
        ("mvr-state", "state");
        ("orset", "orset");
        ("lww-register", "lww");
        ("gossip-relay", "gossip");
      ]
  in
  Tables.print ppf ~title
    ~header:
      [
        "store"; "converged"; "crashes"; "dropped"; "retrans"; "corrupt"; "causal-";
        "occ-"; "lag p99";
      ]
    rows;
  Tables.note ppf
    "12 seeded fault schedules per store: crash windows (volatile state lost,";
  Tables.note ppf
    "recovered by durable checkpoint replay), link faults that heal, and byte";
  Tables.note ppf
    "corruption (every mangled frame rejected by the CRC envelope, then";
  Tables.note ppf
    "retransmitted). converged = the checks the store class guarantees: all";
  Tables.note ppf
    "stores must stay well-formed, comply and agree post-heal; causal stores";
  Tables.note ppf
    "must stay causally consistent. causal-/occ- count runs where those checks";
  Tables.note ppf
    "failed: the eager store loses causality under faulty re-delivery, and";
  Tables.note ppf
    "even causal stores show OCC violations on chaos schedules -- Theorem 6.";
  Tables.note ppf
    "lag p99 = worst p99 visibility staleness (simulated time) across the";
  Tables.note ppf
    "schedules: crashes and link faults stretch the tail far beyond the";
  Tables.note ppf "failure-free staleness E9 reports.";
  Tables.note ppf "Reproduce any schedule with: haec_cli chaos --store ... --seed S"
