(** Canonical anti-entropy replica stacks, the one composition of
    {!Anti_entropy} and {!Durable} that both drivers run: the live
    cluster ([Haec_live.Cluster]) and the simulator's anti-entropy chaos
    drive ([Haec_sim.Chaos]).

    {!Volatile} is the plain stack: anti-entropy directly over the store,
    no crash durability — [recover] is the identity and crash windows are
    rejected by the cluster. {!Durable} layers
    [Durable.Make_tuned (None)] {e over} the anti-entropy wrapper, so the
    WAL records client ops, received gossip payloads, and sends of the
    whole protocol stack: [recover] replays them through a fresh replica,
    which resumes with exactly the state it had durably logged — losses
    beyond that are permanent until anti-entropy repair heals them.
    Auto-checkpointing is off (each checkpoint re-encodes the full
    history — quadratic in a long run); recovery replays the WAL from
    genesis.

    Traffic counters ({!S.gossip_stats}) belong to the replica: they
    survive a crash, and the sends a WAL replay re-encodes are not
    traffic — they never reached a wire. {!Durable}'s [recover] is the
    one place that rule is stated. *)

open Haec_vclock

(** A store under the anti-entropy protocol, plus the pump and
    introspection a driver needs. *)
module type S = sig
  include Store_intf.S

  val tick : state -> state
  (** One gossip round ({!Anti_entropy.Make.tick}); unlogged control
      state, regenerated after a recovery. *)

  val settled : state array -> bool

  val progress : state -> Vclock.t
  (** Per-origin contiguous applied prefix; drives lag measurement and
      convergence detection. *)

  val queue_depth : state -> int

  val pending_bytes : state -> int

  val announce_join : epoch:int -> state -> state
  (** Queue a joiner's hello and first digest; unlogged, like [tick]. *)

  val announce_leave : epoch:int -> state -> state
  (** Queue a graceful leaver's goodbye; unlogged, like [tick]. *)

  val gossip_stats : state -> Store_intf.gossip_stats
  (** A copy of this replica's traffic counters. *)

  val recover : state -> state
  (** Crash recovery: volatile state discarded, rebuilt from whatever the
      stack keeps durably ({!Store_intf.DURABLE.recover}), counters kept;
      the identity for volatile stacks, which therefore cannot run crash
      plans. *)

  val durable : bool
  (** Whether {!recover} actually survives a crash. *)
end

module Volatile (S : Store_intf.S) : S

module Durable (S : Store_intf.S) : S
