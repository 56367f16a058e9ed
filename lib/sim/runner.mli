(** Discrete-event simulation of one data store over a network.

    Two layers share one trace:

    - a {b manual} layer ([op]/[flush]/[deliver_msg]) giving exact control
      over the schedule — this is what the Theorem 6 and Theorem 12
      constructions use to build their adversarial executions; and
    - a {b scheduled} layer driven by a {!Net_policy.t}: [flush] enqueues
      deliveries at policy-chosen times, [advance_to]/[run_until_quiescent]
      process them.

    Each replica is a {!Node}: the one replica step the live cluster
    drives too. The runner owns the clock, the random generator and the
    event queue; every node logs its do/send/receive events into one
    shared {!Node.Log}, producing a well-formed {!Haec_model.Execution.t},
    and (unless disabled) each operation's visibility witness feeds a
    {!Node.Witness} index, from which {!witness_abstract} builds an
    abstract execution the run complies with by construction.

    {b Fault injection.} A {!Fault_plan.t} adds failure modes on top of
    the paper's failure-free model: replica crashes ({!crash} /
    {!recover}, also recorded in the trace), link faults that drop
    messages until they heal, byte-level payload corruption checked by the
    {!Haec_wire.Wire.Frame} checksum, message duplication, bounded
    reordering, and permanent-loss dead links.

    {b Recovery modes.} Under the default [`Oracle] recovery, every
    delivery lost to a crash or a healing link fault is owed a
    retransmission by the runner itself — an omniscient network that keeps
    the "sufficiently connected" requirement satisfied by fiat; this is
    the frozen baseline. Under [`Anti_entropy], the runner never
    retransmits: every loss is final, and convergence is up to the store's
    own wire protocol ({!Haec_store.Anti_entropy.Make}), run as a
    {!Haec_store.Stack.S} — the runner ticks every live replica each gossip
    interval and, once the network drains, keeps firing rounds until the
    stack's own [settled] predicate holds. Dead links are never
    retransmitted in either mode.

    {b Dynamic membership.} The runner's [n] is an id-space capacity; the
    actual member set is an epoch-stamped {!Membership.t} view. Ids
    [0 .. initial-1] serve from time zero, the rest are a reserve pool.
    {!Make.join} brings a reserve id in: it boots empty, announces itself
    through the stack, and bootstraps over the ordinary anti-entropy
    digest/repair protocol; until its progress vector reaches the
    catch-up target captured at join time it is {e bootstrapping} and
    {!Make.op} refuses it — a refused read is unavailability, never a
    stale-causal answer. {!Make.leave} removes a member for good
    (graceful: flushes everything first; crash-leave: vanishes, in-flight
    deliveries to it are lost permanently). Ids are never reused. Both
    transitions are recorded in the trace ({!Haec_model.Event.Join} /
    [Leave]) and bump the view epoch. *)

open Haec_model
open Haec_spec

exception Divergence of { in_flight : int; pending : int; budget : int }
(** Raised by {!Make.run_until_quiescent} when the event budget runs out
    before the network drains: [in_flight] deliveries still queued,
    [pending] live replicas with unsent messages, out of a budget of
    [budget] deliveries. *)

type stats = {
  crashes : int;
  recoveries : int;
  dropped : int;  (** deliveries swallowed by a crash or a faulted link *)
  retransmitted : int;  (** re-scheduled deliveries owed after a fault *)
  corrupt_rejected : int;
      (** corrupted deliveries rejected as [Malformed] by the frame check *)
  corrupt_collisions : int;
      (** corrupted frames whose checksum still verified (~2^-32 each);
          treated as loss, never delivered *)
  lost_permanent : int;
      (** deliveries lost for good — dead links always, and under
          [`Anti_entropy] recovery also crash-swallowed, link-faulted, and
          corrupt-rejected deliveries (the runner retransmits none of
          them) *)
  gossip_rounds : int;  (** gossip rounds fired by the [gossip] driver *)
  joins : int;  (** replicas that joined mid-run *)
  leaves : int;  (** replicas that left mid-run (graceful or crash-leave) *)
}

type recovery = [ `Oracle | `Anti_entropy ]
(** Who repairs a loss: the omniscient runner ([`Oracle], the frozen
    baseline) or the store's own wire protocol ([`Anti_entropy]). *)

module Make (S : Haec_store.Store_intf.S) : sig
  type t

  val create :
    ?seed:int ->
    ?record_witness:bool ->
    ?record_spans:bool ->
    ?auto_send:bool ->
    ?coalesce:bool ->
    ?coalesce_window:float ->
    ?policy:Net_policy.t ->
    ?faults:Fault_plan.t ->
    ?stack:(module Haec_store.Stack.S with type state = S.state) ->
    ?gossip_interval:float ->
    ?initial:int ->
    ?recover_state:(S.state -> S.state) ->
    n:int ->
    unit ->
    t
  (** [auto_send] (default [true]) flushes a replica right after any event
      that leaves a message pending (client op, or receive for non-op-driven
      stores). Without a [policy], sent messages are only recorded and
      returned — delivery is up to the caller.

      [coalesce] (default [false]) turns on gossip coalescing for
      auto-sends: instead of flushing immediately, a replica that becomes
      dirty schedules a single deferred transmission [coalesce_window]
      (default [2.0]) simulated-time units later, so every update it
      performs inside the window is batched into one frame. Fewer, larger
      messages; per-message byte accounting (and the Theorem 12 floor
      audit) is unchanged because the batched frame is a real recorded
      message. Manual {!flush} still sends immediately, and
      {!run_until_quiescent} flushes any still-dirty replica directly when
      the queue drains, so quiescence and convergence are unaffected.

      [faults] enables link-drop, corruption, duplication, reordering, and
      dead-link injection on scheduled deliveries.

      [stack] — the store's anti-entropy stack, whose [state] is the
      runner's — selects [`Anti_entropy] recovery; without it recovery is
      [`Oracle] (see the module comment). Every [gossip_interval]
      (default [2.0]) of simulated time, in event order relative to the
      delivery queue, the runner applies the stack's [tick] to each live
      replica and flushes it; when the network drains, quiescence is
      declared only once the stack's [settled] holds over the member
      states — otherwise further rounds fire, bounded by
      [run_until_quiescent]'s event budget. The stack also supplies the
      crash [recover], the [progress] read behind bootstrap promotion and
      span attribution, the join/leave announcements, and the protocol
      item kinds ({!Haec_store.Anti_entropy.classify}) in
      {!Haec_obs.Span} [Transmit] spans.

      [recover_state], for stackless runs only, maps a crashed replica's
      last state to its post-recovery state (default: identity, i.e.
      perfect durability); pass the [recover] of a
      {!Haec_store.Durable.Make} store to exercise checkpoint recovery.
      Raises [Invalid_argument] together with [stack].

      [initial] (default [n]) makes ids [initial .. n-1] a reserve pool
      for {!join} instead of members from time zero.

      [record_spans] (default [true], implies [record_witness]) collects
      the per-op lifecycle span stream (see {!spans}). *)

  val n_replicas : t -> int

  val now : t -> float

  val op : t -> replica:int -> obj:int -> Op.t -> Op.response
  (** Execute a client operation (immediately, availability!); records the
      do event; auto-sends if configured. Raises [Invalid_argument] at a
      crashed or non-serving replica — a down replica serves no clients,
      and a bootstrapping joiner refuses clients rather than hand out
      stale-causal answers (unavailable, not wrong). *)

  val has_pending : t -> replica:int -> bool

  val flush : t -> replica:int -> Message.t option
  (** If a message is pending, send it: record the send event, schedule
      deliveries when a policy is present, and return the message. A
      crashed replica never flushes ([None]). *)

  val deliver_msg : t -> dst:int -> Message.t -> unit
  (** Manually deliver a previously sent message to [dst] (any number of
      times — the network may duplicate). Records the receive event.
      Raises [Invalid_argument] if [dst] is crashed. *)

  val crash : t -> replica:int -> unit
  (** Crash a replica: record the crash event, mark it down (no ops, no
      sends, no deliveries), and drop every in-flight delivery addressed
      to it — those become owed retransmissions. Raises
      [Invalid_argument] if already down. *)

  val recover : t -> replica:int -> unit
  (** Bring a crashed replica back: rebuild its state (the stack's
      [recover], else [recover_state]), record the recover event, and
      schedule retransmission of everything lost while it was down.
      Raises [Invalid_argument] if not down. *)

  val is_down : t -> replica:int -> bool

  val join : t -> replica:int -> unit
  (** Bring a reserve id into the replica set: bump the view epoch, record
      the join event, queue the stack's join announcement (hello + digest
      announcement), and capture the catch-up target — the pointwise max
      of every serving member's progress vector. The joiner stays
      {e bootstrapping} (op-refusing) until ordinary digest/repair traffic
      carries its progress to the target, at which point it is promoted to
      serving ([bootstrap.latency] records the delay). Requires a
      [stack]; raises [Invalid_argument] otherwise, or if the id is not in
      reserve (ids are never reused). *)

  val leave : t -> replica:int -> graceful:bool -> unit
  (** Remove a member for good: bump the view epoch and record the leave
      event. Graceful: the leaver announces goodbye through the stack and
      flushes every pending payload before departing. Crash-leave
      ([graceful:false]): it vanishes mid-protocol — in-flight deliveries
      addressed to it are lost permanently and anything only it had logged
      is gone (survivor convergence is up to the repair protocol). Raises
      [Invalid_argument] if not a member or currently down. *)

  val membership : t -> Membership.t
  (** The current epoch-stamped membership view. *)

  val is_member : t -> replica:int -> bool

  val is_serving : t -> replica:int -> bool

  val bootstrap_bytes : t -> int
  (** Payload bytes delivered to bootstrapping replicas — the wire cost of
      state transfer, compared against the Theorem 12 floor by E22. *)

  val bootstrap_latency : t -> Haec_obs.Metrics.Histogram.t
  (** Join-to-serving latency, in simulated time, one observation per
      promoted joiner. *)

  val heal : t -> int
  (** Re-schedule every lost delivery whose destination is up again;
      returns how many were requeued. {!run_until_quiescent} does this
      automatically whenever the queue drains. *)

  val lost_count : t -> int
  (** Deliveries currently owed a retransmission (destination still down). *)

  val stats : t -> stats

  val metrics : t -> Haec_obs.Metrics.Registry.t
  (** Wire and visibility telemetry of the run so far, as a fresh
      registry: [wire.messages] (plus one [wire.messages.r<i>] counter per
      replica), the [wire.payload_bytes] and [wire.fanout] histograms,
      [wire.deliveries] / [wire.duplicates] / [wire.retransmissions] /
      [wire.dropped] / [wire.corrupt_rejected] counters, the
      [visibility.lag] staleness histogram (see {!visibility_lag}), and
      [sim.ops] / [sim.crashes] / [sim.recoveries] / [sim.now]. Counters
      are copied at call time; histograms are live references into the
      runner, so a snapshot taken after further events reflects them. *)

  val visibility_lag : t -> Haec_obs.Metrics.Histogram.t
  (** Staleness histogram, in simulated time: for every update and every
      other replica, the lag from the update's do event until the first
      operation at that replica whose witness includes the update. Only
      recorded while witness collection is enabled; drive a read per
      object per replica after quiescence to capture full convergence.
      With spans on, each observation is exactly the component sum of the
      matching [Visible] span's {!Haec_obs.Span.breakdown}. *)

  val spans : t -> Haec_obs.Span.t list
  (** The lifecycle span stream of the run so far, in emission order:
      [Op] (issue-to-flush) and [Transmit] spans at each send, [Flight]
      spans for every delivery/duplicate/permanent loss, [Visible] spans
      (one per witnessed (update, observer) pair, carrying the full lag
      decomposition), [Bootstrap] spans at promotion and [Repair_round]
      spans per fired gossip round. Derived from sim-time data only —
      bit-identical at any [-j]. Empty when [record_spans] is off. *)

  val advance_to : t -> float -> unit
  (** Process all scheduled deliveries up to the given time. *)

  val run_until_quiescent : ?max_events:int -> t -> unit
  (** Drive the network until no message is in flight, no live replica has
      a message pending, and no lost delivery is owed to a live replica
      (Definition 17). Requires a policy. Raises {!Divergence} if
      [max_events] (default 1_000_000) deliveries are exceeded. Deliveries
      owed to still-crashed replicas remain parked until {!recover}. *)

  val in_flight : t -> int

  val replica_state : t -> int -> S.state

  val execution : t -> Execution.t

  val log : t -> Node.Log.t
  (** Every node's events in execution order, each [do] with its witness
      while witness recording is on. *)

  val messages_sent : t -> Message.t list
  (** In send order. *)

  val last_message : t -> replica:int -> Message.t option
  (** The most recent message sent by the given replica. *)

  val witness_abstract : t -> Abstract.t
  (** The witness abstract execution of the run so far. Raises [Failure] if
      witness recording was disabled. *)
end
