(* Wire v2: compressed clocks and dot sets, the container marker, and
   frame-level fuzzing of anti-entropy envelopes. The chaos harness
   treats a [Malformed] that escapes the CRC frame check as a hard
   error, so the decoding contract tested here is: valid frames decode,
   every truncation and every unmarked envelope raises [Malformed], and
   no input ever crashes or silently misdecodes past the checksum. *)

open Helpers
open Haec
module Vclock = Clock.Vclock
module Dot = Clock.Dot
module AE = Store.Anti_entropy.Make (Store.Mvr_store)

let encoded f = Wire.encode f

let clock_gen =
  (* mixes the three regimes the chooser discriminates: small dense
     values (raw wins), constant runs (run-length wins), and large
     spread values (bit-packing wins) *)
  QCheck2.Gen.(
    let* n = 1 -- 24 in
    let* style = 0 -- 2 in
    match style with
    | 0 -> array_size (return n) (0 -- 30)
    | 1 ->
      let* v = 0 -- 100_000 in
      return (Array.make n v)
    | _ -> array_size (return n) (0 -- 1_000_000))

(* ---------- compressed clocks ---------- *)

let prop_encode_c_roundtrip =
  q "encode_c/decode_any roundtrip" clock_gen (fun a ->
      let v = Vclock.of_array a in
      Vclock.equal v (Wire.decode (encoded (fun e -> Vclock.encode_c e v)) Vclock.decode_any))

let prop_encode_c_never_larger =
  q "encode_c never beats v1 at being large" clock_gen (fun a ->
      let v = Vclock.of_array a in
      String.length (encoded (fun e -> Vclock.encode_c e v))
      <= String.length (encoded (fun e -> Vclock.encode e v)))

let prop_v1_clock_still_decodes =
  q "decode_any reads v1 clocks" clock_gen (fun a ->
      let v = Vclock.of_array a in
      Vclock.equal v (Wire.decode (encoded (fun e -> Vclock.encode e v)) Vclock.decode_any))

let delta_gen =
  QCheck2.Gen.(
    let* prev = clock_gen in
    let* bumps = array_size (return (Array.length prev)) (0 -- 5) in
    return (prev, Array.mapi (fun i p -> p + bumps.(i)) prev))

let prop_delta_c_roundtrip =
  q "encode_delta_c/decode_delta_any roundtrip" delta_gen (fun (p, nxt) ->
      let prev = Vclock.of_array p and next = Vclock.of_array nxt in
      Vclock.equal next
        (Wire.decode
           (encoded (fun e -> Vclock.encode_delta_c e ~prev next))
           (fun d -> Vclock.decode_delta_any d ~prev)))

let prop_delta_c_never_larger =
  q "encode_delta_c never larger than dense" delta_gen (fun (p, nxt) ->
      let prev = Vclock.of_array p and next = Vclock.of_array nxt in
      String.length (encoded (fun e -> Vclock.encode_delta_c e ~prev next))
      <= String.length (encoded (fun e -> Vclock.encode_delta e ~prev next)))

(* the raw layout is the fallback every compressed encoder still emits
   when nothing smaller exists: pin its bytes *)
let test_v1_golden_bytes () =
  Alcotest.(check string) "v1 clock bytes" "\x03\x01\x02\x03"
    (encoded (fun e -> Vclock.encode e (Vclock.of_array [| 1; 2; 3 |])));
  let s = Dot.Set.of_list [ Dot.make ~replica:0 ~seq:1; Dot.make ~replica:2 ~seq:5 ] in
  Alcotest.(check string) "v1 dot set bytes" "\x02\x00\x01\x02\x05"
    (encoded (fun e -> Dot.encode_set e s))

(* ---------- compressed dot sets ---------- *)

let dot_set_gen =
  QCheck2.Gen.(
    let* pairs = list_size (0 -- 20) (pair (0 -- 12) (1 -- 100_000)) in
    return
      (Dot.Set.of_list (List.map (fun (r, s) -> Dot.make ~replica:r ~seq:s) pairs)))

let prop_dot_set_c_roundtrip =
  q "encode_set_c/decode_set_any roundtrip" dot_set_gen (fun s ->
      Dot.Set.equal s
        (Wire.decode (encoded (fun e -> Dot.encode_set_c e s)) Dot.decode_set_any))

let prop_dot_set_c_delta_exact =
  q "set_c_delta matches the emitted sizes" dot_set_gen (fun s ->
      let c = String.length (encoded (fun e -> Dot.encode_set_c e s)) in
      let v1 = String.length (encoded (fun e -> Dot.encode_set e s)) in
      c - v1 = Dot.set_c_delta s)

(* ---------- envelope fuzz: truncation and byte flips ---------- *)

(* a small two-replica session returning every distinct payload the
   protocol put on the wire: updates, a digest, and a repair batch *)
let session_payloads () =
  let a = AE.init ~n:2 ~me:0 and b = AE.init ~n:2 ~me:1 in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 1)) in
  let a, p1 = AE.send a in
  let a, _, _ = AE.do_op a ~obj:1 (Model.Op.Write (vi 2)) in
  let a, lost = AE.send a in
  let b = AE.receive b ~sender:0 p1 in
  let b = AE.tick b in
  let b, digest = AE.send b in
  let a = AE.receive a ~sender:1 digest in
  let a, repair = AE.send a in
  let b = AE.receive b ~sender:0 repair in
  ignore (a, b);
  [ p1; lost; digest; repair ]

let expect_malformed ~what payload =
  let b = AE.init ~n:2 ~me:1 in
  match AE.receive b ~sender:0 payload with
  | _ -> Alcotest.failf "%s: expected Malformed" what
  | exception Wire.Decoder.Malformed _ -> ()

let test_truncation_fuzz () =
  List.iteri
    (fun pi payload ->
      for len = 0 to String.length payload - 1 do
        expect_malformed
          ~what:(Printf.sprintf "payload %d cut to %d bytes" pi len)
          (String.sub payload 0 len)
      done)
    (session_payloads ())

let test_sealed_flip_fuzz () =
  (* a corrupted frame must die at the CRC *)
  List.iter
    (fun payload ->
      let framed = Wire.Frame.seal payload in
      for i = 0 to String.length framed - 1 do
        let bs = Bytes.of_string framed in
        Bytes.set bs i (Char.chr (Char.code (Bytes.get bs i) lxor 0x40));
        match Wire.Frame.unseal (Bytes.to_string bs) with
        | exception Wire.Decoder.Malformed _ -> ()
        | _ -> Alcotest.failf "flipped byte %d of a sealed frame accepted" i
      done)
    (session_payloads ())

let prop_receive_total =
  (* arbitrary bytes: receive either applies or raises Malformed *)
  q "anti-entropy receive is total" QCheck2.Gen.string (fun s ->
      let b = AE.init ~n:2 ~me:1 in
      match AE.receive b ~sender:0 s with
      | _ -> true
      | exception Wire.Decoder.Malformed _ -> true)

(* ---------- the container marker ---------- *)

let drain st =
  let rec go st acc =
    if AE.has_pending st then
      let st, p = AE.send st in
      go st (p :: acc)
    else (st, List.rev acc)
  in
  go st []

let test_unmarked_envelope_rejected () =
  (* one update item around a real store payload, framed three ways: with
     the marker (applies), without it as the retired raw envelope was,
     and with version byte 3; the last two must raise [Malformed] *)
  let inner = Store.Mvr_store.init ~n:2 ~me:0 in
  let inner, _, _ = Store.Mvr_store.do_op inner ~obj:0 (Model.Op.Write (vi 7)) in
  let _, payload = Store.Mvr_store.send inner in
  let envelope head =
    encoded (fun e ->
        head e;
        Wire.Encoder.uint e 1;
        Wire.Gossip.encode_kind e Wire.Gossip.Update;
        Wire.Encoder.uint e 0;
        Wire.Encoder.string e payload)
  in
  let marked = envelope Wire.write_marker in
  let unmarked = envelope ignore in
  let v3 =
    envelope (fun e ->
        Wire.Encoder.uint e 0;
        Wire.Encoder.uint e 3)
  in
  let b = AE.receive (AE.init ~n:2 ~me:1) ~sender:0 marked in
  Alcotest.(check int) "marked envelope applied" 1 (Vclock.get (AE.have b) 0);
  Alcotest.(check string) "marked envelope classified" "update"
    (Store.Anti_entropy.classify marked);
  expect_malformed ~what:"unmarked envelope" unmarked;
  expect_malformed ~what:"version 3 envelope" v3;
  Alcotest.(check string) "unmarked envelope not classified" ""
    (Store.Anti_entropy.classify unmarked);
  (* every envelope the protocol itself emits carries the marker *)
  let a = AE.tick (AE.init ~n:2 ~me:0) in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 8)) in
  let _, ps = drain a in
  List.iter
    (fun p -> Alcotest.(check string) "emitted marker" "\x00\x02" (String.sub p 0 2))
    (ps @ session_payloads ())

let test_v2_lost_push_requester_path () =
  (* the companion to the backoff test in test_anti_entropy: a push
     optimistically credits the peer, so when the push is lost the stale
     digest cannot re-trigger it — the gap closes from the requester side
     instead, once a full digest shows b what it misses *)
  let a = AE.init ~n:2 ~me:0 and b = AE.init ~n:2 ~me:1 in
  let a, _, _ = AE.do_op a ~obj:0 (Model.Op.Write (vi 1)) in
  let a, _lost_update = AE.send a in
  let b = AE.tick b in
  let b, digest = AE.send b in
  let a = AE.receive a ~sender:1 digest in
  Alcotest.(check bool) "push queued" true (AE.has_pending a);
  let a, _lost_push = AE.send a in
  (* a now optimistically believes b is caught up: replaying the same
     stale digest must not trigger another push *)
  let a = AE.receive a ~sender:1 digest in
  Alcotest.(check bool) "stale digest re-push suppressed" false (AE.has_pending a);
  (* recovery: a's periodic full digest tells b it is behind, and b
     requests the gap — the answer path is never gated *)
  let rec converge a b fuel =
    if fuel = 0 then Alcotest.fail "v2 requester path did not converge";
    let a = AE.tick a and b = AE.tick b in
    let a, from_a = drain a in
    let b = List.fold_left (fun b p -> AE.receive b ~sender:0 p) b from_a in
    let b, from_b = drain b in
    let a = List.fold_left (fun a p -> AE.receive a ~sender:1 p) a from_b in
    if Vclock.equal (AE.have a) (AE.have b) && AE.settled [| a; b |] then (a, b)
    else converge a b (fuel - 1)
  in
  let a, b = converge a b 20 in
  let _, ra, _ = AE.do_op a ~obj:0 Model.Op.Read in
  let _, rb, _ = AE.do_op b ~obj:0 Model.Op.Read in
  Alcotest.(check bool) "reads agree after requester-path repair" true (ra = rb)

let suite =
  ( "wire-v2",
    [
      prop_encode_c_roundtrip;
      prop_encode_c_never_larger;
      prop_v1_clock_still_decodes;
      prop_delta_c_roundtrip;
      prop_delta_c_never_larger;
      tc "v1 golden bytes" test_v1_golden_bytes;
      prop_dot_set_c_roundtrip;
      prop_dot_set_c_delta_exact;
      tc "truncation fuzz (v2 envelopes)" test_truncation_fuzz;
      tc "sealed frame flip fuzz" test_sealed_flip_fuzz;
      prop_receive_total;
      tc "unmarked or v3 envelope rejected" test_unmarked_envelope_rejected;
      tc "v2 lost push recovered by requester" test_v2_lost_push_requester_path;
    ] )
