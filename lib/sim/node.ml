open Haec_model
open Haec_spec
open Haec_vclock
module Store_intf = Haec_store.Store_intf

module Log = struct
  type entry = { at : float; ev : Event.t; wit : Store_intf.witness option }

  type t = { on : bool; witnesses : bool; mutable rev : entry list }

  let create ?(witnesses = false) () = { on = true; witnesses; rev = [] }

  let discard () = { on = false; witnesses = false; rev = [] }

  let recording t = t.on

  let witnesses t = t.witnesses

  let append t ~at ?wit ev = if t.on then t.rev <- { at; ev; wit } :: t.rev

  let entries t = List.rev t.rev

  let events t = List.rev_map (fun e -> e.ev) t.rev

  let last_send t ~replica =
    List.find_map
      (fun e ->
        match e.ev with
        | Event.Send { msg; _ } when msg.Message.sender = replica -> Some msg
        | _ -> None)
      t.rev
end

module Witness = struct
  module Int_set = Set.Make (Int)

  (* One object's updates: who issued each dot, and how far each
     observer replica has resolved them. [upto] and [ahead] are indexed
     by [observer * n + origin]. *)
  type obj_index = {
    issued : int array array;
        (* origin -> seq -> H index of the update carrying that dot, -1 if
           none yet; grown by doubling *)
    top : int array;  (* origin -> highest seq issued on this object *)
    upto : int array;
        (* every seq up to here is seen by the observer, or one its origin
           issued past without issuing it on this object *)
    ahead : Int_set.t array;  (* seen seqs beyond [upto] *)
  }

  type t = {
    n : int;
    objs : (int, obj_index) Hashtbl.t;
    mutable h_rev : Event.do_event list;
    mutable count : int;
    mutable vis : (int * int) list;  (* each (update, observer replica) pair once *)
  }

  let create ~n = { n; objs = Hashtbl.create 16; h_rev = []; count = 0; vis = [] }

  let index t obj =
    match Hashtbl.find_opt t.objs obj with
    | Some x -> x
    | None ->
      let x =
        {
          issued = Array.make t.n [||];
          top = Array.make t.n 0;
          upto = Array.make (t.n * t.n) 0;
          ahead = Array.make (t.n * t.n) Int_set.empty;
        }
      in
      Hashtbl.add t.objs obj x;
      x

  let issuer x origin seq =
    let a = x.issued.(origin) in
    if seq > 0 && seq < Array.length a then a.(seq) else -1

  let issue x origin seq j =
    let a = x.issued.(origin) in
    let a =
      if seq < Array.length a then a
      else begin
        let b = Array.make (max (seq + 1) (2 * Array.length a)) (-1) in
        Array.blit a 0 b 0 (Array.length a);
        x.issued.(origin) <- b;
        b
      end
    in
    a.(seq) <- j;
    if seq > x.top.(origin) then x.top.(origin) <- seq

  let unseen x k seq = seq > x.upto.(k) && not (Int_set.mem seq x.ahead.(k))

  (* Observer cursor [k] has seen [seq]: move [upto] over every seq seen
     or skipped. Origins issue their dots on an object in increasing seq
     order, so a seq below [top] that is not issued here never will be. *)
  let mark x k origin seq =
    if seq = x.upto.(k) + 1 then x.upto.(k) <- seq
    else x.ahead.(k) <- Int_set.add seq x.ahead.(k);
    let rec advance () =
      let next = x.upto.(k) + 1 in
      if Int_set.mem next x.ahead.(k) then begin
        x.ahead.(k) <- Int_set.remove next x.ahead.(k);
        x.upto.(k) <- next;
        advance ()
      end
      else if next < x.top.(origin) && issuer x origin next < 0 then begin
        x.upto.(k) <- next;
        advance ()
      end
    in
    advance ()

  (* The do event's frontiers resolve against the self dots of the do
     events added before it, so every vis edge respects H order. Only the
     part of each frontier its replica has not seen yet is resolved; a dot
     that does not resolve yet stays unseen, to be retried. *)
  let add ?(on_new = fun _ ~obj:_ -> ()) t (d : Event.do_event) wit =
    let j = t.count in
    (match wit with
    | None -> ()
    | Some (w : Store_intf.witness) ->
      let base = d.Event.replica * t.n in
      let fresh ~obj i =
        t.vis <- (i, j) :: t.vis;
        on_new i ~obj
      in
      List.iter
        (fun (f : Store_intf.frontier) ->
          let obj = f.Store_intf.obj in
          let x = index t obj in
          Option.iter
            (fun cc ->
              for origin = 0 to min t.n (Vclock.size cc) - 1 do
                let k = base + origin in
                for seq = x.upto.(k) + 1 to Vclock.get cc origin do
                  if unseen x k seq then begin
                    let i = issuer x origin seq in
                    if i >= 0 then begin
                      mark x k origin seq;
                      fresh ~obj i
                    end
                  end
                done
              done)
            f.Store_intf.prefix;
          (* exceptions are scanned ascending per origin from its cursor
             and reported descending *)
          let rec scan origin found =
            match
              Dot.Set.find_first_opt
                (fun (dot : Dot.t) -> dot.replica >= origin)
                f.Store_intf.exceptions
            with
            | Some { replica; _ } when replica < t.n ->
              let k = base + replica in
              let found =
                Seq.fold_left
                  (fun found (dot : Dot.t) ->
                    let i = issuer x replica dot.seq in
                    if i >= 0 && unseen x k dot.seq then begin
                      mark x k replica dot.seq;
                      i :: found
                    end
                    else found)
                  found
                  (Seq.take_while
                     (fun (dot : Dot.t) -> dot.replica = replica)
                     (Dot.Set.to_seq_from
                        (Dot.make ~replica ~seq:(x.upto.(k) + 1))
                        f.Store_intf.exceptions))
              in
              scan (replica + 1) found
            | Some _ | None -> found
          in
          List.iter (fresh ~obj) (scan 0 []))
        w.Store_intf.visible;
      Option.iter
        (fun (dot : Dot.t) -> issue (index t d.Event.obj) dot.replica dot.seq j)
        w.Store_intf.self);
    t.h_rev <- d :: t.h_rev;
    t.count <- j + 1;
    j

  let abstract t = Abstract.create ~n:t.n (Array.of_list (List.rev t.h_rev)) ~vis:t.vis
end

module Make (S : Store_intf.S) = struct
  type t = {
    me : int;
    mutable state : S.state;
    rebuild : S.state -> S.state;
    mutable down : bool;
    mutable send_seq : int;
    mutable ops : int;
    mutable payload_bytes : int;
    mutable max_payload : int;
    mutable received : int;
  }

  let create ?(recover = Fun.id) ~n ~me () =
    {
      me;
      state = S.init ~n ~me;
      rebuild = recover;
      down = false;
      send_seq = 0;
      ops = 0;
      payload_bytes = 0;
      max_payload = 0;
      received = 0;
    }

  let state t = t.state
  let is_down t = t.down
  let has_pending t = S.has_pending t.state
  let control t f = t.state <- f t.state
  let ops t = t.ops
  let sent t = t.send_seq
  let payload_bytes t = t.payload_bytes
  let max_payload t = t.max_payload
  let received t = t.received

  let require_up t what =
    if t.down then invalid_arg (Printf.sprintf "Node.%s: replica %d is down" what t.me)

  let op t log ~at ~obj o =
    require_up t "op";
    let state, rval, wit = S.do_op t.state ~obj o in
    t.state <- state;
    t.ops <- t.ops + 1;
    let wit = if Log.witnesses log then Some (Lazy.force wit) else None in
    if Log.recording log then
      Log.append log ~at ?wit (Event.Do { Event.replica = t.me; obj; op = o; rval });
    (rval, wit)

  let send t log ~at =
    require_up t "send";
    let state, payload = S.send t.state in
    t.state <- state;
    let msg = { Message.sender = t.me; seq = t.send_seq; payload } in
    t.send_seq <- t.send_seq + 1;
    let len = String.length payload in
    t.payload_bytes <- t.payload_bytes + len;
    if len > t.max_payload then t.max_payload <- len;
    if Log.recording log then Log.append log ~at (Event.Send { replica = t.me; msg });
    msg

  let receive t log ~at (msg : Message.t) =
    require_up t "receive";
    t.state <- S.receive t.state ~sender:msg.sender msg.payload;
    t.received <- t.received + 1;
    if Log.recording log then Log.append log ~at (Event.Receive { replica = t.me; msg })

  let crash t log ~at =
    require_up t "crash";
    t.down <- true;
    if Log.recording log then Log.append log ~at (Event.Crash { replica = t.me })

  let recover t log ~at =
    if not t.down then invalid_arg (Printf.sprintf "Node.recover: replica %d is up" t.me);
    t.state <- t.rebuild t.state;
    t.down <- false;
    if Log.recording log then Log.append log ~at (Event.Recover { replica = t.me })
end
