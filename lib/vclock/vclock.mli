(** Vector clocks over a fixed set of [n] replicas (Fidge/Mattern).

    A vector clock is the canonical device for tracking potential causality;
    the causally consistent store of Section 6 of the paper uses them, which
    is exactly why its messages cost Theta(n lg k) bits. *)

open Haec_wire

type t
(** Immutable vector of [n] non-negative counters. *)

type order =
  | Equal
  | Before  (** strictly dominated: happens-before *)
  | After  (** strictly dominates *)
  | Concurrent

val zero : n:int -> t

val of_array : int array -> t
(** Copies its argument. Requires all entries non-negative. *)

val to_array : t -> int array
(** Fresh copy. *)

val size : t -> int
(** Number of replicas [n]. *)

val get : t -> int -> int

val copy : t -> t
(** A clock sharing no mutable state with the original — the required
    starting point for the [_into] operations below. *)

val tick : t -> int -> t
(** [tick v r] increments component [r]. *)

val tick_into : t -> int -> unit
(** In-place {!tick}. {b Only} for clocks the caller uniquely owns (e.g.
    obtained via {!copy}); a clock that has been shared — stored in a
    state, captured in a record, returned to a caller — must never be
    mutated, as every [t] handed across an API boundary is immutable by
    contract. *)

val merge : t -> t -> t
(** Component-wise maximum. Requires equal sizes. *)

val merge_into : t -> t -> unit
(** [merge_into a b] sets [a] to the component-wise maximum of [a] and
    [b] in place, leaving [b] untouched. Same unique-ownership caveat as
    {!tick_into}. *)

val compare_causal : t -> t -> order

val leq : t -> t -> bool
(** [leq a b] iff every component of [a] is [<=] the one of [b]. *)

val lt : t -> t -> bool
(** [leq a b] and [a <> b]. *)

val concurrent : t -> t -> bool

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order (lexicographic) for use in sets/maps; unrelated to causality. *)

val sum : t -> int
(** Sum of components: the number of events the clock accounts for. *)

val raise_to : t -> int -> int -> t
(** [raise_to t i x] is [t] with component [i] lifted to at least [x]
    (returned physically unchanged when already there). The entrywise-max
    update anti-entropy peers apply when a message proves its sender holds
    a prefix. *)

val encode : Wire.Encoder.t -> t -> unit

val decode : Wire.Decoder.t -> t

val encode_c : Wire.Encoder.t -> t -> unit
(** Wire-v2 compressed clock: one pass computes the raw, run-length, and
    bit-packed sizes and emits the smallest, so the result is never larger
    than {!encode}. Compressed layouts lead with a 0x00 marker — a byte no
    raw clock starts with ([n >= 1]) — keeping the stream
    self-describing; the raw fallback is byte-identical to {!encode}.
    Requires a non-empty clock. *)

val decode_any : Wire.Decoder.t -> t
(** Decode either {!encode} or {!encode_c} output (the marker byte
    disambiguates). Raises [Wire.Decoder.Malformed] on structural errors,
    including implausibly large run-length totals. *)

val encode_delta : Wire.Encoder.t -> prev:t -> t -> unit
(** Encode the clock as entrywise differences against [prev], which must
    be componentwise [<=] the clock (raises [Invalid_argument] otherwise).
    Dependency vectors within one message batch are componentwise
    non-decreasing, so successive deltas are mostly zero and each costs
    one varint byte where an absolute entry costs up to five. The framing
    stays self-contained: [prev] comes from the {e same} message, never
    from connection state, so loss, duplication, and reordering cannot
    desynchronize the codec. *)

val decode_delta : Wire.Decoder.t -> prev:t -> t
(** Inverse of {!encode_delta} against the same [prev]. Raises
    [Wire.Decoder.Malformed] on a size mismatch. *)

val encode_delta_c : Wire.Encoder.t -> prev:t -> t -> unit
(** Wire-v2 delta: lists only the changed entries as (gap, increment)
    pairs behind a 0x00 marker when that is smaller than the dense
    {!encode_delta} form, which stays the fallback.
    Same [prev] contract as {!encode_delta}. *)

val decode_delta_any : Wire.Decoder.t -> prev:t -> t
(** Decode either {!encode_delta} or {!encode_delta_c} output against the
    same [prev]. *)

val pp : Format.formatter -> t -> unit
