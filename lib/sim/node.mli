(** One replica step: the state machine of Section 2 as both drivers run
    it.

    A node is one replica of a store: its state, the send sequence that
    gives each of its messages an identity [(me, seq)], and the counters
    every driver reports (client ops, messages sent, payload bytes,
    largest payload, receives). Its transitions are the paper's
    [do]/[send]/[receive] events plus the fault model's crash and recover;
    each appends its {!Haec_model.Event.t} — and, for a [do], the store's
    visibility witness when the log captures witnesses — to a {!Log.t}
    the driver supplies.

    The node reads no clock, random generator, ring or event queue. The
    driver stamps every transition with [~at] and carries out the message
    [send] returns: {!Runner} schedules it on its simulated network, the
    live cluster seals it and pushes it to its peers' rings. The runner
    hands every node one shared log, so its events come out in execution
    order; the live cluster gives each node its own and merges them after
    the run. *)

open Haec_model
open Haec_spec

(** An append-only event sink. *)
module Log : sig
  type entry = {
    at : float;  (** the driver's timestamp (simulated or wall seconds) *)
    ev : Event.t;
    wit : Haec_store.Store_intf.witness option;
        (** a [do] event's witness, when the log captures witnesses *)
  }

  type t

  val create : ?witnesses:bool -> unit -> t
  (** A recording log; [witnesses] (default [false]) also keeps each
      [do] event's witness. *)

  val discard : unit -> t
  (** A log that records nothing: nodes skip building the events. *)

  val recording : t -> bool

  val witnesses : t -> bool

  val append : t -> at:float -> ?wit:Haec_store.Store_intf.witness -> Event.t -> unit
  (** Record an event a driver owns itself (membership changes); a
      no-op on a {!discard} log. *)

  val entries : t -> entry list
  (** In append order. *)

  val events : t -> Event.t list
  (** In append order. *)

  val last_send : t -> replica:int -> Message.t option
  (** The most recent message the given replica sent. *)
end

(** The witness abstract execution, assembled one [do] event at a time.
    Self dots are indexed by [(obj, origin)] in seq-indexed arrays, and
    each replica keeps a cumulative frontier of the updates it has seen.
    A do event resolves only the part of its witness's frontiers that its
    replica has not seen yet, against the self dots of the events added
    before it, so each (update, observer replica) pair is resolved once
    and every vis edge respects H order. A dot that does not resolve yet
    stays unseen and is retried at the replica's next do event. Only these
    new pairs become vis edges; {!Abstract.create} closes each event's row
    under its replica's previous row (Definition 4 (1)–(2)), which
    supplies the rest. The runner feeds it as operations happen and reads
    its visibility lag off the new pairs; the live cluster feeds it while
    merging its per-node logs. *)
module Witness : sig
  type t

  val create : n:int -> t
  (** An empty witness over replicas [0 .. n-1]. *)

  val add :
    ?on_new:(int -> obj:int -> unit) ->
    t ->
    Event.do_event ->
    Haec_store.Store_intf.witness option ->
    int
  (** Append a do event (with its witness, if captured) to H; returns its
      index in H. Before appending, [on_new i ~obj] is called for each
      update [i] on [obj] that becomes visible to the event's replica for
      the first time, in the enumeration order of
      {!Haec_store.Store_intf.witness}. *)

  val abstract : t -> Abstract.t
  (** [(H, vis)] over the events added so far. *)
end

module Make (S : Haec_store.Store_intf.S) : sig
  type t

  val create : ?recover:(S.state -> S.state) -> n:int -> me:int -> unit -> t
  (** Replica [me] of [n], in its initial state. [recover] (default: the
      identity, perfect durability) rebuilds the state after a crash. *)

  val state : t -> S.state

  val is_down : t -> bool

  val has_pending : t -> bool

  val control : t -> (S.state -> S.state) -> unit
  (** Apply an unlogged control transition — a gossip tick, a membership
      announcement — that touches no client-visible state. *)

  val op : t -> Log.t -> at:float -> obj:int -> Op.t -> Op.response * Haec_store.Store_intf.witness option
  (** The [do] event: the response, and the witness when the log captures
      witnesses. Raises [Invalid_argument] while down, as do {!send},
      {!receive} and {!crash}. *)

  val send : t -> Log.t -> at:float -> Message.t
  (** The [send] event: the pending payload under the next message id.
      Raises [Invalid_argument] if nothing is pending. *)

  val receive : t -> Log.t -> at:float -> Message.t -> unit

  val crash : t -> Log.t -> at:float -> unit
  (** Mark the replica down; no transition but {!recover} is legal until
      it recovers. *)

  val recover : t -> Log.t -> at:float -> unit
  (** Rebuild the state with [recover] and mark the replica up. Raises
      [Invalid_argument] if it is not down. *)

  val ops : t -> int

  val sent : t -> int

  val payload_bytes : t -> int

  val max_payload : t -> int

  val received : t -> int
end
