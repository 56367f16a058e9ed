open Haec_store
module Spec = Haec_spec.Spec

type shape = [ `Register | `Set ]

type entry = {
  name : string;
  store : (module Store_intf.S);
  shape : shape;
  spec : Spec.t;
  level : Chaos.level option;
}

(* each store is held to the checks its class guarantees under faulty
   re-delivery: causal stores to causal consistency, the lww register
   only to convergence (its timestamp arbitration may disagree with
   trace order), everyone else to witness correctness. OCC is reported
   but never required — Theorem 6. *)
let all =
  let e name store shape spec level = { name; store; shape; spec; level } in
  [
    e "mvr" (module Mvr_store) `Register Spec.mvr (Some `Correct);
    e "causal" (module Causal_mvr_store) `Register Spec.mvr (Some `Causal);
    e "cops" (module Cops_store) `Register Spec.mvr (Some `Causal);
    e "state" (module State_mvr_store) `Register Spec.mvr (Some `Correct);
    e "orset" (module Orset_store) `Set Spec.orset (Some `Correct);
    e "lww" (module Lww_store) `Register Spec.rw_register (Some `Converge);
    e "counter" (module Counter_store.Causal) `Set Spec.counter None;
    e "gossip" (module Gossip_relay_store) `Register Spec.mvr (Some `Correct);
    e "delayed" (module Delayed_store.K3) `Register Spec.mvr None;
    e "gsp" (module Gsp_store) `Register Spec.rw_register None;
  ]

let checked = List.filter (fun e -> e.level <> None) all

let find entries name = List.find_opt (fun e -> e.name = name) entries

let get name =
  match find all name with
  | Some e -> e
  | None -> invalid_arg ("Catalogue.get: no store " ^ name)

let names entries = String.concat "|" (List.map (fun e -> e.name) entries)

let mix e =
  match e.shape with `Register -> Workload.register_mix | `Set -> Workload.orset_mix

let level e =
  match e.level with
  | Some l -> l
  | None -> invalid_arg ("Catalogue.level: store " ^ e.name ^ " has no check level")

let run_seeds ?ops ?recovery ?adversarial ?churn e ~seeds =
  let require = level e in
  let (module S) = e.store in
  let module C = Chaos.Make (S) in
  C.run_seeds ?ops ~spec_of:(fun _ -> e.spec) ~mix:(mix e) ~require ?recovery
    ?adversarial ?churn ~seeds ()
