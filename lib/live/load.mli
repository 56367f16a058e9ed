(** Closed-loop load generation for the live cluster runtime: operation
    mixes, Zipf key skew, and op construction.

    Deliberately independent of the simulator's [Workload] module (this
    library sits below [haec_sim]): the live generator needs per-replica
    determinism (each domain owns a seeded {!Haec_util.Rng.t} split from
    the run seed) and globally unique write values without coordination —
    a write by replica [r] carries [Value.Pair (r, k)] with [k] that
    replica's write counter, so value-based checkers (OCC, RVal) can
    resolve reads to writes in a live trace exactly as they do in
    simulation. *)

type mix = { read_w : int; write_w : int; add_w : int; remove_w : int }
(** Relative weights; at least one must be positive. *)

val register_mix : mix
(** 1:1 read/write — the MVR/causal register default. *)

val orset_mix : mix
(** 2:0:2:1 read/add/remove, matching the simulator's set workload. *)

val mix_of_read_pct : int -> mix
(** [mix_of_read_pct p] — [p]% reads, the rest writes; [p] clamped to
    [0, 100]. *)

val of_shape : [ `Register | `Set ] -> read_pct:int -> mix
(** The mix for a store's workload shape ([Haec_sim.Catalogue.shape]):
    {!mix_of_read_pct} for registers, {!orset_mix} for sets. *)

val is_update_mix : mix -> bool
(** Whether the mix can produce updates at all (a 100%-read mix never
    converges to anything interesting). *)

type sampler
(** Key-skew sampler over object ids [0 .. objects-1]. *)

val sampler : objects:int -> theta:float -> sampler
(** Zipf(theta) over the object space via a precomputed CDF and binary
    search; [theta = 0] is uniform (and skips the CDF entirely).
    Raises [Invalid_argument] if [objects < 1] or [theta] is negative or
    not finite. *)

val sample : sampler -> Haec_util.Rng.t -> int

type gen
(** Per-replica op generator: owns the write counter that makes this
    replica's write values globally unique. *)

val gen : replica:int -> mix -> gen

val next : gen -> Haec_util.Rng.t -> Haec_model.Op.t
(** Draw the next operation: kind by mix weight, write values
    [Pair (replica, k)] with [k] counting up from 0, add/remove values
    from the simulator's conventional small pool (so set removes
    actually hit prior adds). *)

val issued : gen -> int
(** Ops drawn from this generator so far. *)

val writes : gen -> int
(** Update ops (write/add/remove) drawn so far — also the [k] the next
    write value would carry. *)
