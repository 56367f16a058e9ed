(** Abstract executions [(H, vis)] (Definition 4).

    [H] is a finite total order of [do] events; [vis] is an acyclic
    visibility relation. Events are addressed by their index in [H].
    The representation is immutable from the outside. Visibility rows are
    bitsets, one per event, and every event links to the previous event on
    its object; the checkers ({!Spec.check_correct}, the OCC and session
    checks, transitive closure) answer their questions from these rows
    word-parallel instead of materialising sub-executions. *)

open Haec_util
open Haec_model

type t

val create : n:int -> Event.do_event array -> vis:(int * int) list -> t
(** [create ~n h ~vis] builds the abstract execution from the given
    visibility edges. Conditions (1) and (2) of Definition 4 (same-replica
    precedence implies visibility; visibility persists at a replica) hold in
    every abstract execution, so the given edges are closed under them
    automatically; condition (3) (visibility respects the order of [H]) is
    validated and raises [Invalid_argument] if violated. *)

val create_unchecked : n:int -> Event.do_event array -> vis:(int * int) list -> t
(** Same closure, but skips the condition (3) validation. Whatever the
    edges, backward ones included, every event's row ends up holding the
    previous event of its replica and that event's whole row: Definition 4
    conditions (1)–(2) hold by construction. A caller may therefore pass,
    for each event, only the edges its replica had not seen before — the
    simulator's witness does exactly that — and read-your-writes and
    monotonic reads ({!Haec_consistency.Session}) hold on every result. *)

val check_valid : t -> (unit, string) result

val n_replicas : t -> int

val length : t -> int

val event : t -> int -> Event.do_event

val events : t -> Event.do_event array
(** Fresh copy of [H]. *)

val vis : t -> int -> int -> bool
(** [vis a i j] iff event [i] is visible to event [j]. *)

val vis_preds : t -> int -> int list
(** All [i] with [vis a i j], ascending. *)

val vis_row : t -> int -> Bitset.t
(** The set [{i | vis a i j}]: [a]'s own row, shared rather than copied.
    Callers read it (word-parallel tests, {!Bitset.union_into} from it)
    and must never mutate it. Its capacity is [length a]. *)

val vis_pairs : t -> (int * int) list

val prefix : t -> int -> t
(** [prefix a m]: the first [m] events with vis restricted (Definition 5). *)

val equal_equivalent : t -> t -> bool
(** Equivalence (Section 3.2): same per-replica sequences of do events. *)

val restrict_object : t -> int -> t * int array
(** [restrict_object a o] is [A|o] together with the map from new indices
    to original indices. *)

val iter_context : t -> int -> (int -> unit) -> unit
(** [iter_context a e f] calls [f] on every event of [ctxt(a, e)] other
    than [e] — the events on [e]'s object visible to [e] — in descending H
    order. It walks [e]'s object chain, so it costs one bit test per
    earlier event on that object and builds nothing. *)

val is_transitive : t -> bool
(** Causal consistency of the visibility relation (Definition 12). *)

val transitive_closure : t -> t
(** Same [H], vis replaced by its transitive closure. *)

val pp : Format.formatter -> t -> unit
