(** Dots: globally unique event identifiers [(replica, seq)].

    A dot names the [seq]-th update issued by [replica]. Stores tag writes
    and ORset additions with dots; the visibility *witness* a store reports
    for each operation is a set of dots (see [Haec_store.Store_intf]). *)

open Haec_wire

type t = { replica : int; seq : int }

val make : replica:int -> seq:int -> t

val compare : t -> t -> int

val equal : t -> t -> bool

val encode : Wire.Encoder.t -> t -> unit

val decode : Wire.Decoder.t -> t

val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t

module Map : Map.S with type key = t

val encode_set : Wire.Encoder.t -> Set.t -> unit

val decode_set : Wire.Decoder.t -> Set.t

val encode_set_c : Wire.Encoder.t -> Set.t -> unit
(** Compressed set: bit-packs replicas and seqs when that beats the
    {!encode_set} pair list. The two layouts are distinguished by a
    leading zero, which the raw layout also uses for the empty set — so
    this encoding is only safe inside containers that carry the container
    marker (e.g. a marked COPS batch); {!decode_set} cannot read it and
    vice versa. *)

val decode_set_any : Wire.Decoder.t -> Set.t
(** Reads either {!encode_set_c} layout. Only call where the enclosing
    frame guarantees the compressed grammar (see {!encode_set_c}). *)

val set_c_delta : Set.t -> int
(** Bytes {!encode_set_c} adds (positive) or saves (negative) relative
    to {!encode_set}, so a caller can decide whether a version-marked
    container paying per-frame marker bytes is worth it. *)
