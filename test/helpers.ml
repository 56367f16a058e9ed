(* Shared shorthand for the test suite. *)

open Haec

module Value = Model.Value
module Op = Model.Op
module Event = Model.Event
module Execution = Model.Execution
module Message = Model.Message
module Hb = Model.Hb
module Abstract = Spec.Abstract
module Specf = Spec.Spec
module Causal = Consistency.Causal
module Occ = Consistency.Occ
module Eventual = Consistency.Eventual
module Compliance = Consistency.Compliance
module Search = Consistency.Search
module Rng = Util.Rng

let vi n = Value.Int n

(* do-event constructors *)
let w_ replica obj v = { Event.replica; obj; op = Op.Write (vi v); rval = Op.Ok }

let rd_ replica obj vs = { Event.replica; obj; op = Op.Read; rval = Op.vals (List.map vi vs) }

let add_ replica obj v = { Event.replica; obj; op = Op.Add (vi v); rval = Op.Ok }

let rm_ replica obj v = { Event.replica; obj; op = Op.Remove (vi v); rval = Op.Ok }

let mvr_spec (_ : int) = Specf.mvr

let orset_spec (_ : int) = Specf.orset

let check_response = Alcotest.testable Op.pp_response Op.equal_response

let resp vs = Op.vals (List.map vi vs)

let q ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* run an alcotest case *)
let tc name f = Alcotest.test_case name `Quick f

let check_ok name = function
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" name m

(* The operation context [ctxt(A, e)] of Definition 7 as an abstract
   execution of its own: the events on [e]'s object visible to [e], then
   [e] itself (always last), with visibility restricted to them. The
   checkers never build it; the tests use it as the literal reading of
   the definition. *)
let context a e =
  let members = ref [ e ] in
  Abstract.iter_context a e (fun i -> members := i :: !members);
  let idx = Array.of_list !members in
  let m = Array.length idx in
  let vis = ref [] in
  for j = 0 to m - 1 do
    for i = 0 to m - 1 do
      if Abstract.vis a idx.(i) idx.(j) then vis := (i, j) :: !vis
    done
  done;
  let h = Array.map (Abstract.event a) idx in
  (Abstract.create_unchecked ~n:(Abstract.n_replicas a) h ~vis:!vis, m - 1)
