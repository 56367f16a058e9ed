(** The data-store interface: one replica's state machine (Section 2).

    A store is a pure state machine. [do_op] handles a client operation
    without any communication (high availability); [send] serializes
    everything the replica wants to broadcast and clears the pending flag
    (the paper's "a send event relays everything the replica has to send");
    [receive] applies a (possibly duplicated, reordered) message.

    Beyond the paper's model, [do_op] also returns a {!witness}: the
    visibility information the replica itself used to answer, from which
    the simulator assembles a witness abstract execution that the run
    complies with by construction. This sidesteps the (NP-hard) search for
    a complying abstract execution on large runs; the witness is then fed
    to the correctness / causality / OCC / eventual-consistency checkers. *)

open Haec_model
open Haec_vclock

(** Instrumentation of delivery layers that buffer remote updates: how
    much work one replica's buffer did. Each replica allocates its own
    mutable record at [init], and every state derived from that replica
    counts into it; a driver that wants totals sums its own replicas with
    {!add_delivery_stats}. The soak benchmark (E20) reads these to show
    how buffer cost scales with the number of buffered records. *)
type delivery_stats = {
  mutable scans : int;
      (** deliverability checks performed against buffered records *)
  mutable delivered : int;
      (** records handed to the object layer (or the hidden queue) *)
  mutable max_buffer : int;
      (** peak number of simultaneously buffered records at one replica *)
}

let fresh_delivery_stats () = { scans = 0; delivered = 0; max_buffer = 0 }

let copy_delivery_stats s =
  { scans = s.scans; delivered = s.delivered; max_buffer = s.max_buffer }

(** [add_delivery_stats dst src] adds [src]'s work into [dst]; the peak
    stays a peak (the larger of the two). *)
let add_delivery_stats dst src =
  dst.scans <- dst.scans + src.scans;
  dst.delivered <- dst.delivered + src.delivered;
  dst.max_buffer <- max dst.max_buffer src.max_buffer

(** Instrumentation for the anti-entropy gossip layer ({!Anti_entropy}),
    per replica like {!delivery_stats}. Counts are per broadcast payload
    (the simulator fans one payload out to [n-1] peers); bytes are wire
    bytes of the encoded items inside those payloads, so the E21
    digest/repair traffic columns measure real encoded bytes. A replica
    rebuilt after a crash keeps its counters, and the sends its WAL
    replay re-encodes are not traffic ({!Stack}). *)
type gossip_stats = {
  mutable digests : int;  (** digest items sent *)
  mutable digest_bytes : int;
  mutable repairs : int;  (** repair items sent (pushes and request answers) *)
  mutable repair_bytes : int;
  mutable requests : int;  (** repair-request items sent *)
  mutable request_bytes : int;
  mutable updates : int;  (** fresh update items sent *)
  mutable update_bytes : int;
  mutable dup_payloads : int;
      (** received update/repair payloads already logged (duplicates) *)
  mutable repair_applied : int;
      (** previously missing payloads obtained through a repair *)
  mutable memberships : int;  (** hello/goodbye membership items sent *)
  mutable membership_bytes : int;
  mutable digest_deltas : int;
      (** wire-v2 delta digests sent in place of full digests *)
  mutable digests_elided : int;
      (** gossip rounds whose digest was suppressed as redundant (v2) *)
}

let fresh_gossip_stats () =
  {
    digests = 0;
    digest_bytes = 0;
    repairs = 0;
    repair_bytes = 0;
    requests = 0;
    request_bytes = 0;
    updates = 0;
    update_bytes = 0;
    dup_payloads = 0;
    repair_applied = 0;
    memberships = 0;
    membership_bytes = 0;
    digest_deltas = 0;
    digests_elided = 0;
  }

let copy_gossip_stats s =
  {
    digests = s.digests;
    digest_bytes = s.digest_bytes;
    repairs = s.repairs;
    repair_bytes = s.repair_bytes;
    requests = s.requests;
    request_bytes = s.request_bytes;
    updates = s.updates;
    update_bytes = s.update_bytes;
    dup_payloads = s.dup_payloads;
    repair_applied = s.repair_applied;
    memberships = s.memberships;
    membership_bytes = s.membership_bytes;
    digest_deltas = s.digest_deltas;
    digests_elided = s.digests_elided;
  }

(** [add_gossip_stats dst src] adds [src]'s counters into [dst]: how a
    driver totals the replicas it runs. *)
let add_gossip_stats dst src =
  dst.digests <- dst.digests + src.digests;
  dst.digest_bytes <- dst.digest_bytes + src.digest_bytes;
  dst.repairs <- dst.repairs + src.repairs;
  dst.repair_bytes <- dst.repair_bytes + src.repair_bytes;
  dst.requests <- dst.requests + src.requests;
  dst.request_bytes <- dst.request_bytes + src.request_bytes;
  dst.updates <- dst.updates + src.updates;
  dst.update_bytes <- dst.update_bytes + src.update_bytes;
  dst.dup_payloads <- dst.dup_payloads + src.dup_payloads;
  dst.repair_applied <- dst.repair_applied + src.repair_applied;
  dst.memberships <- dst.memberships + src.memberships;
  dst.membership_bytes <- dst.membership_bytes + src.membership_bytes;
  dst.digest_deltas <- dst.digest_deltas + src.digest_deltas;
  dst.digests_elided <- dst.digests_elided + src.digests_elided

type witness = {
  visible : (int * Dot.t) list;
      (** [(obj, dot)] of every update visible to this operation. Dots are
          store-defined update identifiers, unique per object. *)
  self : Dot.t option;
      (** the dot this store assigned to the operation, if it is an update *)
}

let empty_witness = { visible = []; self = None }

module type S = sig
  type state

  val name : string

  val invisible_reads : bool
  (** Definition 16: client reads do not change the replica state. *)

  val op_driven : bool
  (** Definition 15: messages become pending only due to client operations,
      never merely from receiving a message. *)

  val init : n:int -> me:int -> state
  (** Initial state of replica [me] out of [n]. *)

  val do_op : state -> obj:int -> Op.t -> state * Op.response * witness Lazy.t
  (** The witness is lazy because enumerating visible dots is the most
      expensive part of an operation; large benchmark runs that do not
      check consistency never force it. *)

  val has_pending : state -> bool
  (** Whether a send event is enabled ("has a message pending"). *)

  val send : state -> state * string
  (** The pending broadcast payload, deterministic in the state; afterwards
      no message is pending. Raises [Invalid_argument] if none pending. *)

  val receive : state -> sender:int -> string -> state
end

(** A store that survives crashes: alongside the volatile replica state it
    maintains a durable image — a wire-encoded checkpoint plus a
    write-ahead log of everything applied since — from which {!recover}
    rebuilds the replica after a crash wipes its volatile memory. See
    {!Durable.Make}, which derives this for any store. *)
module type DURABLE = sig
  include S

  val checkpoint : state -> state
  (** Fold the write-ahead log into the serialized snapshot. Idempotent. *)

  val recover : state -> state
  (** The state after a crash: volatile memory is discarded and rebuilt by
      decoding the snapshot and replaying it plus every post-checkpoint
      log entry through a fresh replica. Raises
      [Haec_wire.Wire.Decoder.Malformed] if the durable image is corrupt. *)

  val wal_length : state -> int
  (** Number of log entries applied since the last checkpoint. *)

  val snapshot_bytes : state -> int
  (** Size of the serialized checkpoint, in bytes. *)
end
