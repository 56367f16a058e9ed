(** Compact binary wire format.

    Every message a store broadcasts is serialized through this module, so
    that the message-size measurements of the Theorem 12 experiment count
    real bytes rather than abstract estimates.

    Integers use LEB128 varints (7 payload bits per byte); signed integers
    are zigzag-mapped first, so small magnitudes of either sign stay short.
    Lists and strings are length-prefixed.

    {b Compressed layouts.} The layout above is the {e raw} one. Bit-packed
    and run-length vector clocks and sparse delta vectors each hide behind
    a leading [0x00] byte, a position where every raw encoding puts a
    varint that is at least 1, so a raw value still decodes wherever a
    compressed one may appear. Encoders emit the raw layout as their
    fallback whenever it is the smallest. Containers that carry compressed
    items (the anti-entropy envelope, a COPS batch with compressed dependency
    sets) lead with the
    two-byte marker [[0x00, 2]] of {!write_marker}. *)

module Encoder : sig
  type t

  val create : unit -> t

  val uint : t -> int -> unit
  (** LEB128 varint. Requires a non-negative argument. *)

  val uint_array : t -> int array -> unit
  (** Length-prefixed array of varints, fused into a single reservation
      and write loop. Requires non-negative entries. *)

  val packed_array : t -> int array -> width:int -> unit
  (** Fixed-width bit packing, little-endian bit order, {e no} length
      prefix — the caller frames [Array.length] itself. Requires
      [1 <= width <= 56] and every entry within [width] bits (raises
      [Invalid_argument] otherwise). *)

  val int : t -> int -> unit
  (** Zigzag + LEB128; accepts any int. *)

  val bool : t -> bool -> unit

  val string : t -> string -> unit
  (** Length-prefixed bytes. *)

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** Length-prefixed sequence. *)

  val array : t -> (t -> 'a -> unit) -> 'a array -> unit

  val option : t -> (t -> 'a -> unit) -> 'a option -> unit

  val pair : t -> (t -> 'a -> unit) -> (t -> 'b -> unit) -> 'a * 'b -> unit

  val to_string : t -> string
  (** The bytes accumulated so far. *)

  val size_bytes : t -> int

  val size_bits : t -> int
end

module Decoder : sig
  type t
  (** A [pos, limit) window over a shared input string; sub-decoders
      ({!sub}) are views into the parent's bytes, never copies. *)

  exception Malformed of string
  (** Raised when the input cannot be decoded: truncation, varint overflow,
      or a length prefix exceeding the remaining input. *)

  val of_string : string -> t

  val of_sub : string -> pos:int -> len:int -> t
  (** A decoder over the window [\[pos, pos+len)] of the string, without
      copying. Raises [Invalid_argument] if the window is out of bounds. *)

  val uint : t -> int

  val uint_array : t -> int array
  (** Fused inverse of {!Encoder.uint_array}: one length read, one bounds
      check, one tight loop. *)

  val packed_array : t -> n:int -> width:int -> int array
  (** Inverse of {!Encoder.packed_array} for [n] entries of [width] bits.
      The byte budget is validated before allocating. *)

  val int : t -> int

  val bool : t -> bool

  val string : t -> string

  val skip_string : t -> unit
  (** Advance past a length-prefixed string without copying it — the
      zero-copy path for classifiers that only need the envelope shape. *)

  val sub : t -> int -> t
  (** [sub t len] is a child decoder viewing the next [len] bytes; the
      parent skips past them. Raises [Malformed] if fewer remain. *)

  val peek : t -> int
  (** The next byte without consuming it. Raises [Malformed] at end of
      input. The layout dispatch: a leading [0x00] marks a compressed
      layout, anything else is a raw varint. *)

  val list : t -> (t -> 'a) -> 'a list

  val array : t -> (t -> 'a) -> 'a array

  val option : t -> (t -> 'a) -> 'a option

  val pair : t -> (t -> 'a) -> (t -> 'b) -> 'a * 'b

  val remaining : t -> int
  (** Bytes of input not yet consumed. Lets length-prefixed decoders
      reject a bogus count before allocating for it. *)

  val at_end : t -> bool

  val expect_end : t -> unit
  (** Raises [Malformed] unless all input has been consumed. *)
end

module Frame : sig
  (** Checksummed transport envelope.

      The fault-injection harness corrupts message bytes in transit; a
      store must never apply corrupted state silently. Sealing a payload
      appends a CRC-32 so that {!unseal} rejects any in-flight mutation as
      {!Decoder.Malformed} — the same exception stores raise on
      structurally invalid input — modelling the checksum every real
      transport performs before bytes reach the application. *)

  val crc32 : string -> int
  (** Reflected IEEE CRC-32 of the bytes, in [0, 2^32). *)

  val seal : string -> string
  (** Length-prefixed payload followed by its CRC-32. Runs through the
      pooled per-domain scratch encoder, so sealing allocates nothing
      beyond the result. *)

  val unseal : string -> string
  (** Inverse of {!seal}. Raises {!Decoder.Malformed} on truncation,
      trailing garbage, or checksum mismatch. *)
end

module Gossip : sig
  (** Message kinds of the anti-entropy protocol
      ({!Haec_store.Anti_entropy}). The tag space is fixed here, at the
      wire layer, so stores, telemetry and tests agree on the envelope
      without depending on each other: an anti-entropy payload is the
      container marker ({!write_marker}) and a length-prefixed sequence of
      tagged items — seq-numbered {!Update} payloads, version-vector
      {!Digest}s and their sparse {!Digest_delta}s (only the [have]
      entries changed since the sender's last digest), targeted
      {!Repair_request}s, and {!Repair_runs} answering them (one merged
      per-peer repair as per-origin runs of consecutive sequence numbers).
      Dynamic membership adds two control kinds: {!Hello} announces a
      replica entering the set at a given epoch (a joiner's first digest
      rides with it, triggering the bootstrap state transfer), {!Goodbye}
      announces a graceful leave. Tag 3 (the per-payload repair item of
      the old unmarked envelope) is retired and decodes as [Malformed]. *)

  type kind =
    | Update
    | Digest
    | Repair_request
    | Hello
    | Goodbye
    | Digest_delta
    | Repair_runs

  val tag : kind -> int

  val name : kind -> string

  val encode_kind : Encoder.t -> kind -> unit

  val decode_kind : Decoder.t -> kind
  (** Raises {!Decoder.Malformed} on an unknown tag. *)
end

val encode : (Encoder.t -> unit) -> string
(** [encode f] runs [f] on a fresh encoder and returns the bytes. *)

val decode : string -> (Decoder.t -> 'a) -> 'a
(** [decode s f] decodes with [f] and checks the whole input was consumed.
    Raises {!Decoder.Malformed} on any framing error. *)

val write_marker : Encoder.t -> unit
(** The container marker [[0x00, 2]]: the zero no raw layout starts with,
    then the format version. *)

val read_marker : Decoder.t -> bool
(** Consumes a container marker and returns [true] if the input starts
    with one; returns [false], consuming nothing, if the input starts with
    a raw varint. Raises {!Decoder.Malformed} at end of input or on a
    version byte other than 2. *)

val size_bits : string -> int
(** Size of a serialized message in bits (8 per byte). *)
