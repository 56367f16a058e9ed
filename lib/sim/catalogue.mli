(** The store catalogue: every store class the CLI and the experiments
    run, with what running it takes — the [--store] name, the module,
    the shape of its workload, the specification its objects follow, and
    the checks a faulty run must pass. The CLI's store flags, their
    documentation and error messages, and the experiments' row lists all
    read it. *)

type shape = [ `Register | `Set ]
(** What a client workload does to the store's objects: reads and writes
    of registers, or reads, adds and removes of sets. Both the
    simulator's {!Workload.mix} and the live load mix derive from it. *)

type entry = {
  name : string;  (** the [--store] value *)
  store : (module Haec_store.Store_intf.S);
  shape : shape;
  spec : Haec_spec.Spec.t;
  level : Chaos.level option;
      (** the checks a faulty run must pass (see {!Chaos.level}); [None]
          for stores only the fault-free commands run *)
}

val all : entry list
(** In [--store] documentation order. *)

val checked : entry list
(** The entries with a check level: what [chaos], [trace] and [serve]
    run. *)

val find : entry list -> string -> entry option

val get : string -> entry
(** Raises [Invalid_argument] for a name not in {!all}. *)

val names : entry list -> string
(** ["mvr|causal|..."], for documentation and error messages. *)

val mix : entry -> Workload.mix
(** The simulator workload of the entry's shape. *)

val level : entry -> Chaos.level
(** Raises [Invalid_argument] for an entry without a check level. *)

val run_seeds :
  ?ops:int ->
  ?recovery:Runner.recovery ->
  ?adversarial:bool ->
  ?churn:bool ->
  entry ->
  seeds:int list ->
  Chaos.outcome list
(** {!Chaos.Make.run_seeds} over the entry's store, its objects under its
    spec, its workload shape, and its check level required; raises
    [Invalid_argument] for an entry without a check level. *)
