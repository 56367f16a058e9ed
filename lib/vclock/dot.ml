open Haec_wire

module T = struct
  type t = { replica : int; seq : int }

  let compare a b =
    match Int.compare a.replica b.replica with
    | 0 -> Int.compare a.seq b.seq
    | c -> c
end

include T

let make ~replica ~seq = { replica; seq }

let equal a b = compare a b = 0

let encode enc t =
  Wire.Encoder.uint enc t.replica;
  Wire.Encoder.uint enc t.seq

let decode dec =
  let replica = Wire.Decoder.uint dec in
  let seq = Wire.Decoder.uint dec in
  { replica; seq }

let pp ppf t = Format.fprintf ppf "%d.%d" t.replica t.seq

module Set = Set.Make (T)
module Map = Map.Make (T)

let encode_set enc s = Wire.Encoder.list enc encode (Set.elements s)

let decode_set dec = Set.of_list (Wire.Decoder.list dec decode)

(* Compressed sets, for marked containers only. The raw layout encodes
   an empty set as the single byte 0x00, so a leading zero is NOT
   self-describing here (unlike vclocks, whose raw form always starts with
   a count >= 1): the caller must already know from an enclosing frame
   marker that the compressed grammar applies. Layouts:
     count >= 1, (replica, seq)*          -- the raw pair list
     0x00, 0x00                           -- empty set
     0x00, count >= 1, rw, sw, packed replicas, packed seqs
   The chooser emits whichever is smaller, so a compressed set never
   exceeds its raw size by more than the 1-byte empty-set marker. *)

let varint_len v =
  let rec go v acc = if v < 0x80 then acc else go (v lsr 7) (acc + 1) in
  go v 1

let bit_width v =
  let rec go v acc = if v = 0 then max acc 1 else go (v lsr 1) (acc + 1) in
  go v 0

(* (raw bytes, compressed bytes, replica width, seq width) for [s]; the
   compressed layout never beats raw on the empty set (2 bytes vs 1) and
   only wins on sets big enough to amortise the width header *)
let set_sizes s =
  if Set.is_empty s then (1, 2, 0, 0)
  else begin
    let count = Set.cardinal s in
    let rw = ref 1 and sw = ref 1 and raw = ref (varint_len count) in
    Set.iter
      (fun d ->
        rw := max !rw (bit_width d.replica);
        sw := max !sw (bit_width d.seq);
        raw := !raw + varint_len d.replica + varint_len d.seq)
      s;
    let packed =
      1 + varint_len count + 2 + (((count * !rw) + 7) / 8) + (((count * !sw) + 7) / 8)
    in
    (!raw, min !raw packed, !rw, !sw)
  end

let set_c_delta s =
  let raw, c, _, _ = set_sizes s in
  c - raw

let encode_set_c enc s =
  let elts = Set.elements s in
  let count = List.length elts in
  if count = 0 then begin
    Wire.Encoder.uint enc 0;
    Wire.Encoder.uint enc 0
  end
  else begin
    let raw, best, rw, sw = set_sizes s in
    if best >= raw then encode_set enc s
    else begin
      Wire.Encoder.uint enc 0;
      Wire.Encoder.uint enc count;
      Wire.Encoder.uint enc rw;
      Wire.Encoder.uint enc sw;
      let rs = Array.make count 0 and ss = Array.make count 0 in
      List.iteri
        (fun i d ->
          rs.(i) <- d.replica;
          ss.(i) <- d.seq)
        elts;
      Wire.Encoder.packed_array enc rs ~width:rw;
      Wire.Encoder.packed_array enc ss ~width:sw
    end
  end

let decode_set_any dec =
  if Wire.Decoder.peek dec <> 0 then decode_set dec
  else begin
    ignore (Wire.Decoder.uint dec);
    let count = Wire.Decoder.uint dec in
    if count = 0 then Set.empty
    else begin
      let rw = Wire.Decoder.uint dec in
      let sw = Wire.Decoder.uint dec in
      let rs = Wire.Decoder.packed_array dec ~n:count ~width:rw in
      let ss = Wire.Decoder.packed_array dec ~n:count ~width:sw in
      let s = ref Set.empty in
      for i = 0 to count - 1 do
        s := Set.add { replica = rs.(i); seq = ss.(i) } !s
      done;
      !s
    end
  end
