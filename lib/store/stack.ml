open Haec_vclock

module type S = sig
  include Store_intf.S

  val tick : state -> state
  val settled : state array -> bool
  val progress : state -> Vclock.t
  val queue_depth : state -> int
  val pending_bytes : state -> int
  val announce_join : epoch:int -> state -> state
  val announce_leave : epoch:int -> state -> state
  val gossip_stats : state -> Store_intf.gossip_stats
  val recover : state -> state
  val durable : bool
end

module Volatile (S : Store_intf.S) : S = struct
  module AE = Anti_entropy.Make (S)
  include AE

  let progress = AE.have
  let recover st = st
  let durable = false
end

module Durable (S : Store_intf.S) : S = struct
  module AE = Anti_entropy.Make (S)

  module DA =
    Durable.Make_tuned
      (struct
        let auto_checkpoint_every = None
      end)
      (AE)

  include DA

  (* the gossip tick and membership announcements regenerate themselves
     after recovery, so they bypass the WAL by design *)
  let tick = DA.map_inner AE.tick
  let settled states = AE.settled (Array.map DA.inner states)
  let progress st = AE.have (DA.inner st)
  let queue_depth st = AE.queue_depth (DA.inner st)
  let pending_bytes st = AE.pending_bytes (DA.inner st)
  let announce_join ~epoch = DA.map_inner (AE.announce_join ~epoch)
  let announce_leave ~epoch = DA.map_inner (AE.announce_leave ~epoch)
  let gossip_stats st = AE.gossip_stats (DA.inner st)

  (* the replay runs through a fresh replica with fresh counters, which
     then count every send and duplicate the replay re-encodes; the
     rebuilt replica counts on into the crashed one's counters instead *)
  let recover st = DA.map_inner (AE.carry_stats ~from:(DA.inner st)) (DA.recover st)
  let durable = true
end
