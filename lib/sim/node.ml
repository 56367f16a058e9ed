open Haec_model
open Haec_spec
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
  type t = {
    pos : (int * Haec_vclock.Dot.t, int) Hashtbl.t;  (* (obj, dot) -> do index *)
    mutable h_rev : Event.do_event list;
    mutable count : int;
    mutable vis : (int * int) list;
  }

  let create () = { pos = Hashtbl.create 64; h_rev = []; count = 0; vis = [] }

  let find t key = Hashtbl.find_opt t.pos key

  (* the do event's visible dots resolve against the self dots of the do
     events added before it, so every vis edge respects H order *)
  let add t (d : Event.do_event) wit =
    let j = t.count in
    (match wit with
    | None -> ()
    | Some w ->
      List.iter
        (fun key ->
          match find t key with Some i -> t.vis <- (i, j) :: t.vis | None -> ())
        w.Store_intf.visible;
      Option.iter (fun dot -> Hashtbl.replace t.pos (d.Event.obj, dot) j) w.Store_intf.self);
    t.h_rev <- d :: t.h_rev;
    t.count <- j + 1;
    j

  let abstract t ~n = Abstract.create ~n (Array.of_list (List.rev t.h_rev)) ~vis:t.vis
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
