(** The four session guarantees (Terry et al.), as predicates on abstract
    executions.

    These are the classic consistency conditions strictly between eventual
    and causal consistency; causal consistency implies all four. Checking
    them on witness abstract executions locates each store on the
    consistency ladder below the paper's OCC ceiling (experiment E13).

    The guarantees are evaluated per replica ("session" = one replica's
    sequence of operations, matching the paper's model where clients talk
    to one replica).

    Read-your-writes and monotonic reads are Definition 4 conditions
    (1)–(2), which {!Abstract.create_unchecked} builds into every
    abstract execution: each event's row holds its replica's previous
    event and that event's row. On an [Abstract.t] the two checks
    therefore always pass, which is why E13's RYW and MR columns cannot
    fail; they stay as checks of that construction. *)

open Haec_spec

type report = {
  read_your_writes : (unit, string) result;
      (** every update by a replica is visible to its own later same-object
          operations (implied by Definition 4 condition 1) *)
  monotonic_reads : (unit, string) result;
      (** updates visible to an operation stay visible to later operations
          at the same replica (Definition 4 condition 2 makes this
          structural for any abstract execution; on a witness it checks
          the store never "forgets") *)
  monotonic_writes : (unit, string) result;
      (** a replica's own updates are visible in the order issued: an
          update visible anywhere implies the issuer's earlier updates
          (any object) are visible there too *)
  writes_follow_reads : (unit, string) result;
      (** an update is never visible without the updates (any object) that
          were visible to its issuer when issuing it. Together with
          transitive closure this is what separates causal delivery from
          per-object version-vector repair *)
}

val check : Abstract.t -> report
(** Evaluates each guarantee in one pass of word-parallel row tests over
    the visibility rows and their transpose. A violated guarantee reports
    its first violation in the order of its definition's quantifiers (for
    read-your-writes the least update, then the least later event), with
    the indices of that violation in the message. *)

val all_hold : report -> bool

val holding : report -> string list
(** Names of the guarantees that hold. *)

val pp : Format.formatter -> report -> unit
