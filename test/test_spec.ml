open Helpers
module A = Abstract

(* Two replicas write concurrently to x (object 0), a third reads both:
   the canonical MVR multi-value situation. *)
let concurrent_writes_read () =
  A.create ~n:3
    [| w_ 0 0 1; w_ 1 0 2; rd_ 2 0 [ 1; 2 ] |]
    ~vis:[ (0, 2); (1, 2) ]

let test_create_validates () =
  (* vis must respect H order *)
  match A.create ~n:2 [| w_ 0 0 1; rd_ 1 0 [ 1 ] |] ~vis:[ (1, 0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of order-violating vis"

let test_program_order_baked () =
  let a = A.create ~n:1 [| w_ 0 0 1; rd_ 0 0 [ 1 ] |] ~vis:[] in
  Alcotest.(check bool) "same-replica vis implied" true (A.vis a 0 1)

let test_visibility_persists () =
  (* i vis j at a replica implies i vis j' for later j' at that replica *)
  let a =
    A.create ~n:2 [| w_ 0 0 1; rd_ 1 0 [ 1 ]; rd_ 1 0 [ 1 ] |] ~vis:[ (0, 1) ]
  in
  Alcotest.(check bool) "persisted" true (A.vis a 0 2)

let test_prefix () =
  let a = concurrent_writes_read () in
  let p = A.prefix a 2 in
  Alcotest.(check int) "length" 2 (A.length p);
  Alcotest.(check bool) "no dangling vis" true (A.vis_preds p 1 = [])

let test_equivalence () =
  let a = concurrent_writes_read () in
  (* different H interleaving, same per-replica sequences *)
  let b =
    A.create ~n:3
      [| w_ 1 0 2; w_ 0 0 1; rd_ 2 0 [ 1; 2 ] |]
      ~vis:[ (0, 2); (1, 2) ]
  in
  Alcotest.(check bool) "equivalent" true (A.equal_equivalent a b);
  let c = A.create ~n:3 [| w_ 0 0 1; w_ 1 0 3; rd_ 2 0 [ 1; 2 ] |] ~vis:[] in
  Alcotest.(check bool) "different values not equivalent" false (A.equal_equivalent a c)

let test_context () =
  (* context contains only same-object visible events, plus the target *)
  let a =
    A.create ~n:2
      [| w_ 0 0 1; w_ 0 1 7; w_ 1 0 2; rd_ 1 0 [ 1; 2 ] |]
      ~vis:[ (0, 3); (1, 3) ]
  in
  let ctx, target = context a 3 in
  Alcotest.(check int) "context size" 3 (A.length ctx);
  Alcotest.(check int) "target last" 2 target;
  (* the y-write is filtered although visible *)
  let objs = Array.to_list (A.events ctx) |> List.map (fun d -> d.Haec.Model.Event.obj) in
  Alcotest.(check (list int)) "objects" [ 0; 0; 0 ] objs

let test_restrict_object () =
  let a =
    A.create ~n:2 [| w_ 0 0 1; w_ 0 1 7; rd_ 1 1 [ 7 ] |] ~vis:[ (1, 2) ]
  in
  let a1, idx = A.restrict_object a 1 in
  Alcotest.(check int) "two events on object 1" 2 (A.length a1);
  Alcotest.(check (array int)) "index map" [| 1; 2 |] idx;
  Alcotest.(check bool) "vis kept" true (A.vis a1 0 1)

let test_transitive_closure () =
  let a =
    A.create ~n:3 [| w_ 0 0 1; w_ 1 1 2; rd_ 2 0 [ 1 ] |] ~vis:[ (0, 1); (1, 2) ]
  in
  Alcotest.(check bool) "not transitive" false (A.is_transitive a);
  let c = A.transitive_closure a in
  Alcotest.(check bool) "closure transitive" true (A.is_transitive c);
  Alcotest.(check bool) "edge added" true (A.vis c 0 2)

(* ---------- Figure 1 specification functions ---------- *)

let test_mvr_spec () =
  let a = concurrent_writes_read () in
  check_ok "mvr correct" (Specf.check_correct ~spec_of:mvr_spec a)

let test_mvr_domination () =
  (* w1 visible to w2: read must return only w2's value *)
  let a =
    A.create ~n:3
      [| w_ 0 0 1; w_ 1 0 2; rd_ 2 0 [ 2 ] |]
      ~vis:[ (0, 1); (0, 2); (1, 2) ]
  in
  check_ok "dominated write hidden" (Specf.check_correct ~spec_of:mvr_spec a);
  (* returning the dominated value too would be incorrect *)
  let bad =
    A.create ~n:3
      [| w_ 0 0 1; w_ 1 0 2; rd_ 2 0 [ 1; 2 ] |]
      ~vis:[ (0, 1); (0, 2); (1, 2) ]
  in
  Alcotest.(check bool) "rejected" false (Specf.is_correct ~spec_of:mvr_spec bad)

let test_mvr_empty_read () =
  let a = A.create ~n:1 [| rd_ 0 0 [] |] ~vis:[] in
  check_ok "empty read" (Specf.check_correct ~spec_of:mvr_spec a);
  let bad = A.create ~n:2 [| w_ 0 0 1; rd_ 1 0 [ 1 ] |] ~vis:[] in
  Alcotest.(check bool) "invisible write not returnable" false
    (Specf.is_correct ~spec_of:mvr_spec bad)

let test_rw_register_spec () =
  (* register: last write in H' wins, even if siblings would be concurrent *)
  let a =
    A.create ~n:3
      [| w_ 0 0 1; w_ 1 0 2; rd_ 2 0 [ 2 ] |]
      ~vis:[ (0, 2); (1, 2) ]
  in
  check_ok "register returns last write in H'"
    (Specf.check_correct ~spec_of:(fun _ -> Specf.rw_register) a);
  Alcotest.(check bool) "mvr would demand both" false (Specf.is_correct ~spec_of:mvr_spec a)

let test_orset_spec () =
  (* add wins under concurrency *)
  let a =
    A.create ~n:3
      [| add_ 0 0 5; add_ 1 0 5; { (rm_ 2 0 5) with Haec.Model.Event.replica = 2 }; rd_ 2 0 [ 5 ] |]
      ~vis:[ (0, 2) (* remove observed only R0's add *); (0, 3); (1, 3); (2, 3) ]
  in
  (* R1's concurrent add survives the remove *)
  check_ok "add wins" (Specf.check_correct ~spec_of:orset_spec a)

let test_orset_remove_all () =
  let a =
    A.create ~n:2
      [| add_ 0 0 5; rm_ 1 0 5; rd_ 1 0 [] |]
      ~vis:[ (0, 1) ]
  in
  check_ok "observed remove removes" (Specf.check_correct ~spec_of:orset_spec a)

let test_counter_spec () =
  let h =
    [|
      add_ 0 0 1;
      add_ 1 0 1;
      rm_ 0 0 1;
      { Haec.Model.Event.replica = 1; obj = 0; op = Haec.Model.Op.Read; rval = resp [ 1 ] };
    |]
  in
  let a = A.create ~n:2 h ~vis:[ (0, 3); (1, 3); (2, 3) ] in
  check_ok "counter = adds - removes" (Specf.check_correct ~spec_of:(fun _ -> Specf.counter) a)

let test_with_correct_responses () =
  let a =
    A.create ~n:3 [| w_ 0 0 1; w_ 1 0 2; rd_ 2 0 [ 99 ] |] ~vis:[ (0, 2); (1, 2) ]
  in
  Alcotest.(check bool) "initially wrong" false (Specf.is_correct ~spec_of:mvr_spec a);
  let fixed = Specf.with_correct_responses ~spec_of:mvr_spec a in
  check_ok "fixed" (Specf.check_correct ~spec_of:mvr_spec fixed);
  Alcotest.check check_response "computed response" (resp [ 1; 2 ])
    (A.event fixed 2).Haec.Model.Event.rval

let test_mixed_objects () =
  (* per-object specs via spec_of *)
  let spec_of o = if o = 0 then Specf.mvr else Specf.orset in
  let a =
    A.create ~n:2
      [| w_ 0 0 1; add_ 1 1 4; rd_ 0 0 [ 1 ]; rd_ 1 1 [ 4 ] |]
      ~vis:[ (1, 3) ]
  in
  check_ok "mixed" (Specf.check_correct ~spec_of a)

let suite =
  ( "spec",
    [
      tc "create validates vis order" test_create_validates;
      tc "program order baked into vis" test_program_order_baked;
      tc "visibility persists at replica" test_visibility_persists;
      tc "prefix" test_prefix;
      tc "equivalence" test_equivalence;
      tc "operation context" test_context;
      tc "restrict to object" test_restrict_object;
      tc "transitive closure" test_transitive_closure;
      tc "mvr: concurrent writes returned" test_mvr_spec;
      tc "mvr: dominated write hidden" test_mvr_domination;
      tc "mvr: only visible writes" test_mvr_empty_read;
      tc "register: last write in H'" test_rw_register_spec;
      tc "orset: add wins" test_orset_spec;
      tc "orset: observed remove" test_orset_remove_all;
      tc "counter extension" test_counter_spec;
      tc "with_correct_responses" test_with_correct_responses;
      tc "mixed object specs" test_mixed_objects;
    ] )
