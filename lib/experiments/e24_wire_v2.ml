(** E24 — wire v2: compressed causal metadata and delta-state
    anti-entropy, measured against the Theorem 12 floor. The wire format
    packs version vectors (interval/run-length or bit-packed, whichever is
    smallest, with the raw varint array as the fallback) and replaces most
    absolute anti-entropy digests with sparse deltas or elides them
    outright. Theorem 12 says no causal store can push the largest message
    below min{n-2, s-1} * lg k bits, so compression can only spend down
    the metadata *overhead* above that floor. Part A repeats the E19
    oracle probe with clocks large enough for packing to pay: every
    message must stay at or above the floor. Part B repeats the E21
    adversarial anti-entropy runs and reports the digest+repair gossip
    bytes; every seed must converge. *)

open Haec
module Telemetry = Sim.Telemetry

let name = "E24"

let title = "E24: wire v2 — floor ratio and anti-entropy bytes"

(* ---------- part A: oracle runs, the E19 probe ---------- *)

type probe = { k : int; bytes : int; max_bits : int; floor : float }

module Probe (S : Store.Store_intf.S) = struct
  module R = Sim.Runner.Make (S)

  let run ~seed ~n ~objects ~ops mix =
    let rng = Util.Rng.create seed in
    let sim = R.create ~seed ~n ~policy:(Sim.Net_policy.random_delay ()) () in
    let steps = Sim.Workload.generate ~rng ~n ~objects ~ops mix in
    Sim.Workload.run
      (fun ~replica ~obj op -> R.op sim ~replica ~obj op)
      ~advance:(R.advance_to sim) steps;
    R.run_until_quiescent sim;
    let exec = R.execution sim in
    let k = Telemetry.max_writes_per_replica exec in
    {
      k;
      bytes = Model.Execution.total_message_bits exec / 8;
      max_bits = Model.Execution.max_message_bits exec;
      floor = Telemetry.theorem12_floor_bits ~n ~s:objects ~k;
    }
end

let probe_row label probe ~n ~objects ~ops mix =
  let p = probe ~seed:(2400 + n) ~n ~objects ~ops mix in
  [
    label;
    string_of_int n;
    string_of_int objects;
    string_of_int p.k;
    string_of_int p.bytes;
    Tables.f1 (float_of_int p.bytes /. float_of_int ops);
    string_of_int p.max_bits;
    Tables.f1 p.floor;
    Tables.f2 (float_of_int p.max_bits /. p.floor);
    Tables.yes_no (float_of_int p.max_bits >= p.floor);
  ]

module P_causal = Probe (Store.Causal_mvr_store)
module P_reg = Probe (Store.Causal_reg_store)
module P_cops = Probe (Store.Cops_store)
module P_orset = Probe (Store.Causal_orset_store)

(* ---------- part B: adversarial anti-entropy ---------- *)

let seeds = List.init 6 (fun i -> i + 1)

let ae_ops = 60

let counter metrics name =
  match Obs.Metrics.Registry.find metrics name with
  | Some (Obs.Metrics.Registry.Counter c) -> Obs.Metrics.Counter.value c
  | Some _ | None -> 0

type ae = { conv : int; digest : int; repair : int; deltas : int; elided : int }

let ae_probe entry =
  let outcomes =
    Sim.Catalogue.run_seeds ~ops:ae_ops ~recovery:`Anti_entropy ~adversarial:true entry
      ~seeds
  in
  List.fold_left
    (fun a o ->
      let m = o.Sim.Chaos.metrics in
      {
        conv = (a.conv + if Sim.Chaos.converged o then 1 else 0);
        digest = a.digest + counter m "gossip.digest_bytes";
        repair = a.repair + counter m "gossip.repair_bytes";
        deltas = a.deltas + counter m "gossip.digest_deltas";
        elided = a.elided + counter m "gossip.digests_elided";
      })
    { conv = 0; digest = 0; repair = 0; deltas = 0; elided = 0 }
    outcomes

let ae_row (label, store) =
  let a = ae_probe (Sim.Catalogue.get store) in
  let runs = List.length seeds in
  [
    label;
    Printf.sprintf "%d/%d" a.conv runs;
    string_of_int a.digest;
    string_of_int a.repair;
    string_of_int a.deltas;
    string_of_int a.elided;
    Tables.f1 (float_of_int (a.digest + a.repair) /. float_of_int (runs * ae_ops));
    Tables.yes_no (a.conv = runs);
  ]

let run ppf =
  let reg = Sim.Workload.register_mix and set = Sim.Workload.orset_mix in
  let a_rows =
    (* enough ops that clock entries outgrow one-byte varints: that is the
       regime where bit-packing beats the raw array; below it the raw
       fallback is already the smallest *)
    [
      probe_row "mvr-causal" P_causal.run ~n:6 ~objects:3 ~ops:5400 reg;
      probe_row "causal-reg" P_reg.run ~n:6 ~objects:3 ~ops:5400 reg;
      probe_row "mvr-cops-deps" P_cops.run ~n:6 ~objects:3 ~ops:5400 reg;
      probe_row "orset-causal" P_orset.run ~n:6 ~objects:3 ~ops:5400 set;
    ]
  in
  Tables.print ppf ~title
    ~header:
      [
        "store"; "n"; "s"; "k"; "bytes"; "B/op"; "max msg bits"; "floor bits";
        "ratio"; ">= floor";
      ]
    a_rows;
  let b_rows =
    List.map ae_row
      [
        ("mvr-eager", "mvr");
        ("mvr-causal", "causal");
        ("mvr-cops-deps", "cops");
        ("orset", "orset");
      ]
  in
  Tables.print ppf
    ~title:"E24b: delta-state anti-entropy — adversarial fault schedules"
    ~header:
      [
        "store"; "converged"; "digest B"; "repair B"; "deltas"; "elided";
        "gossip B/op"; "all converged";
      ]
    b_rows;
  List.iter (Tables.note ppf)
    [
      "Part A replays the E19 oracle probe on one seeded workload per store:";
      "version vectors travel run-length or bit-packed (never larger than";
      "the raw varint array), and the max-message/floor ratio is the";
      "Theorem 12 overhead budget left; every message still clears the";
      "floor min{n-2, s-1} * lg k. Part B replays the E21 adversarial";
      "anti-entropy schedules: most digests travel as sparse deltas against";
      "the last-sent vector (or are elided when nothing changed), repair";
      "payloads are batched into per-origin runs, and every seed converges.";
      "Reproduce: haec_cli chaos --recovery anti-entropy --adversarial.";
    ]
