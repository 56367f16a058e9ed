(* The benchmark's measuring program: one measured run per process.

   perfbench/run.py starts this program once per run, in a fresh process
   under a wall-clock watchdog, and reads the one JSON object it prints
   on stdout. Every mode measures the repository from outside, through
   the public functions of its libraries:

     bench live    --workload W --seed N --seconds D [--cold]
         a saturated two-domain [Live.Cluster.run] of workload W;
         --cold skips the warm-up of [Wire.Frame] (see [warm_wire]);
     bench loop    --workload W --seed N --seconds D
         the single-domain node loop of [traced], untraced, for D
         seconds of CPU time;
     bench capture --workload W --seed N --seconds D --rate R [--trace]
         a short fixed-rate captured run of W's key/mix shape, audited
         with the unmodified checkers ([Sim.Checks.validate]);
     bench audit   --seed N [--trace]
         a seeded [Sim.Runner] history, then the same check set;
     bench traced  --workload W --seed N --seconds D [--spans FILE]
         the single-domain traced loop: W's mix through the node loop
         (drain, issue a batch, flush, tick) with a span around every
         call into a layer, then the same loop untraced for overhead;
     bench probe   --workload W --seed N
         set-up only: build W's inputs (live: the node loop's state)
         and exit;
     bench occ-table --from A --to B
         the OCC violation count of the audit history for seeds A..B-1,
         the table run.py checks [audit] runs against.

   The [live] and [capture] modes touch nothing before [Cluster.run]
   except one [Wire.Frame.seal] (see [warm_wire]); [live --cold] not
   even that. *)

open Haec
module Cluster = Live.Cluster
module Load = Live.Load
module Spsc = Live.Spsc
module Histogram = Obs.Metrics.Histogram
module Json = Obs.Json
module Stack = Live.Stack.Volatile (Store.Causal_mvr_store)
module Node = Cluster.Make (Stack)
module Sim_runner = Sim.Runner.Make (Store.Causal_mvr_store)

let wall () = Unix.gettimeofday ()

(* ---------- workloads ---------- *)

type shape = { objects : int; read_pct : int; zipf : float }

(* [audit] has no live phase of its own; its capture run uses the
   register default shape (1:1 read/write, 64 uniform keys) *)
let shape_of = function
  | "live-write" -> { objects = 64; read_pct = 10; zipf = 0.0 }
  | "live-read" -> { objects = 4096; read_pct = 90; zipf = 0.99 }
  | "audit" -> { objects = 64; read_pct = 50; zipf = 0.0 }
  | w -> invalid_arg ("unknown workload " ^ w)

let replicas = 2

let batch = 8

let cluster_config shape ~seed ~duration ~rate ~capture =
  {
    Cluster.default with
    replicas;
    seed;
    objects = shape.objects;
    mix = Load.mix_of_read_pct shape.read_pct;
    zipf = shape.zipf;
    duration;
    rate;
    batch;
    capture;
  }

(* the audited simulated history: causal MVR, 4 replicas, 1000 client
   ops over 8 objects, independent random delays *)
let audit_replicas = 4

let audit_ops = 1000

let audit_objects = 8

(* run.py maps any --seed into the range its OCC table covers *)
let audit_steps ~seed =
  let rng = Util.Rng.create seed in
  Sim.Workload.generate ~rng ~n:audit_replicas ~objects:audit_objects ~ops:audit_ops
    Sim.Workload.register_mix

(* ---------- process-level measurements ---------- *)

let peak_rss_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              kb * 1024)
        else go ()
    in
    let v = go () in
    close_in ic;
    v

(* CPU seconds this process has used, every domain included *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let num x = Json.Num x

let int x = Json.Num (float_of_int x)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let emit fields = print_endline (Json.to_string (Json.Obj fields))

let result_field name = function
  | Ok () -> (name, Json.Null)
  | Error e -> (name, Json.Str e)

(* ---------- the check set ---------- *)

let occ_count closed =
  match Consistency.Occ.check closed with
  | Ok vs -> List.length vs
  | Error _ -> -1

(* Untraced: the whole [Sim.Checks.validate] call is what is timed
   ([audit_s]); the OCC count for the output check is recomputed after
   the clock stops. Traced: each check [validate] runs, in its order,
   timed on its own, plus the minor words the set allocates. *)
let audit_fields ~trace exec wit =
  let spec_of _ = Spec.Spec.mvr in
  if not trace then begin
    let t0 = wall () in
    let c0 = cpu_s () in
    let r = Sim.Checks.validate ~spec_of exec wit in
    let audit_cpu_s = cpu_s () -. c0 in
    let audit_s = wall () -. t0 in
    let occ = occ_count (Spec.Abstract.transitive_closure wit) in
    [
      ("audit_s", num audit_s);
      ("audit_cpu_s", num audit_cpu_s);
      result_field "well_formed" r.Sim.Checks.well_formed;
      result_field "complies" r.Sim.Checks.complies;
      result_field "correct" r.Sim.Checks.correct;
      result_field "causal" r.Sim.Checks.causal;
      ("occ_violations", int occ);
    ]
  end
  else begin
    let w0 = Gc.minor_words () in
    let c0 = cpu_s () in
    let timed f =
      let t0 = wall () in
      let v = f () in
      (v, wall () -. t0)
    in
    let closed, closure_s = timed (fun () -> Spec.Abstract.transitive_closure wit) in
    let wf, wf_s = timed (fun () -> Model.Execution.check_well_formed exec) in
    let co, co_s = timed (fun () -> Consistency.Compliance.check exec wit) in
    let cr, cr_s = timed (fun () -> Spec.Spec.check_correct ~spec_of wit) in
    let ca, ca_s = timed (fun () -> Spec.Spec.check_correct ~spec_of closed) in
    let occ, occ_s = timed (fun () -> occ_count closed) in
    let words = Gc.minor_words () -. w0 in
    let audit_cpu_s = cpu_s () -. c0 in
    [
      ("check.closure_s", num closure_s);
      ("check.well_formed_s", num wf_s);
      ("check.complies_s", num co_s);
      ("check.correct_s", num cr_s);
      ("check.causal_s", num ca_s);
      ("check.occ_s", num occ_s);
      ("check.words", num words);
      ("audit_s", num (closure_s +. wf_s +. co_s +. cr_s +. ca_s +. occ_s));
      ("audit_cpu_s", num audit_cpu_s);
      result_field "well_formed" wf;
      result_field "complies" co;
      result_field "correct" cr;
      result_field "causal" ca;
      ("occ_violations", int occ);
    ]
  end

let history_fields exec =
  let messages = Model.Execution.messages_sent exec in
  [
    ("events", int (Model.Execution.length exec));
    ("messages", int (List.length messages));
    ("message_bytes", int (Model.Execution.total_message_bits exec / 8));
  ]

(* ---------- live cluster runs ---------- *)

(* the live output check: healed, every issued op done, some updates *)
let cluster_ok (r : Cluster.result) =
  match r.outcome with
  | Cluster.Diverged why -> (false, "diverged: " ^ why)
  | Cluster.Healed _ ->
    if r.total_ops <> r.total_issued then
      (false, Printf.sprintf "ops %d <> issued %d" r.total_ops r.total_issued)
    else if r.total_updates <= 0 then (false, "no updates")
    else (true, "")

let cluster_fields ~t_call ~run_wall ~gc0 (r : Cluster.result) =
  let gc1 = Gc.quick_stat () in
  let ok, why = cluster_ok r in
  let share_max =
    Array.fold_left
      (fun a (s : Cluster.replica_stats) -> Float.max a (ratio s.ops r.total_ops))
      0.0 r.per_replica
  in
  let lag = r.lag_ms in
  let lag_q q = if Histogram.count lag = 0 then 0.0 else Histogram.quantile lag q in
  let g = r.gossip in
  [
    ("ok", Json.Bool ok);
    ("why", Json.Str why);
    ("t_call", num t_call);
    ("run_wall_s", num run_wall);
    ("elapsed_s", num r.elapsed);
    ("drain_s", num r.drain_elapsed);
    ("ops", int r.total_ops);
    ("issued", int r.total_issued);
    ("updates", int r.total_updates);
    ("ops_per_s", num r.ops_per_sec);
    ("lag_samples", int (Histogram.count lag));
    ("lag_ms_mean", num (if Histogram.count lag = 0 then 0.0 else Histogram.mean lag));
    ("lag_ms_p50", num (lag_q 0.5));
    ("lag_ms_p99", num (lag_q 0.99));
    ("frames", int r.frames);
    ("payload_bytes", int r.payload_bytes);
    ("wire_bytes", int r.wire_bytes);
    ("max_payload_bytes", int r.max_payload_bytes);
    ("stalls", int r.stalls);
    ("queue_depth_peak", int r.queue_depth_peak);
    ("replica_op_share_max", num share_max);
    ("digest_bytes", int g.Store.Store_intf.digest_bytes);
    ("repair_bytes", int g.Store.Store_intf.repair_bytes);
    ("dup_payloads", int g.Store.Store_intf.dup_payloads);
    ("minor_words", num (gc1.Gc.minor_words -. gc0.Gc.minor_words));
    ("major_collections", int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    ("peak_rss_bytes", int (peak_rss_bytes ()));
  ]

(* [Wire.Frame]'s CRC table is a module-level [lazy]. When the domains
   of a fresh process force it at the same moment, one of them can die
   with [CamlinternalLazy.Undefined]. The measured runs force it on the
   main domain first; [cold] runs leave it alone, so that race is still
   seen and counted. *)
let warm_wire () = ignore (Wire.Frame.seal "")

let live ~workload ~seed ~seconds ~cold =
  if not cold then warm_wire ();
  let cfg =
    cluster_config (shape_of workload) ~seed ~duration:seconds ~rate:0.0 ~capture:false
  in
  let gc0 = Gc.quick_stat () in
  let t_call = wall () in
  let r = Node.run cfg in
  let run_wall = wall () -. t_call in
  emit (cluster_fields ~t_call ~run_wall ~gc0 r)

let capture ~workload ~seed ~seconds ~rate ~trace =
  warm_wire ();
  let cfg =
    cluster_config (shape_of workload) ~seed ~duration:seconds ~rate ~capture:true
  in
  let gc0 = Gc.quick_stat () in
  let t_call = wall () in
  let r = Node.run cfg in
  let run_wall = wall () -. t_call in
  let live = cluster_fields ~t_call ~run_wall ~gc0 r in
  match (r.trace, r.witness) with
  | Some exec, Some wit -> emit (live @ history_fields exec @ audit_fields ~trace exec wit)
  | _ -> emit (live @ [ ("ok", Json.Bool false); ("why", Json.Str "no capture") ])

(* ---------- the simulated audit history ---------- *)

(* The audited history; returns the wall and CPU time at which its client
   steps were ready, so the caller can time the simulation alone. *)
let simulate ~seed =
  let steps = audit_steps ~seed in
  let t_ready = (wall (), cpu_s ()) in
  let sim =
    Sim_runner.create ~seed ~n:audit_replicas ~policy:(Sim.Net_policy.random_delay ()) ()
  in
  Sim.Workload.run
    (fun ~replica ~obj op -> Sim_runner.op sim ~replica ~obj op)
    ~advance:(Sim_runner.advance_to sim) steps;
  Sim_runner.run_until_quiescent sim;
  (t_ready, Sim_runner.execution sim, Sim_runner.witness_abstract sim)

let audit ~seed ~trace =
  let gc0 = Gc.quick_stat () in
  let (t_ready, c_ready), exec, wit = simulate ~seed in
  let sim_s = wall () -. t_ready in
  let sim_cpu_s = cpu_s () -. c_ready in
  let updates =
    List.length
      (List.filter
         (fun (_, (d : Model.Event.do_event)) -> Model.Op.is_update d.Model.Event.op)
         (Model.Execution.do_events exec))
  in
  let checks = audit_fields ~trace exec wit in
  let gc1 = Gc.quick_stat () in
  emit
    ([
       ("ok", Json.Bool true);
       ("t_call", num t_ready);
       ("ops", int audit_ops);
       ("updates", int updates);
       ("sim_s", num sim_s);
       ("sim_cpu_s", num sim_cpu_s);
       ("ops_per_s", num (float_of_int audit_ops /. sim_s));
       ("minor_words", num (gc1.Gc.minor_words -. gc0.Gc.minor_words));
       ("major_collections", int (gc1.Gc.major_collections - gc0.Gc.major_collections));
     ]
    @ history_fields exec @ checks
    @ [ ("peak_rss_bytes", int (peak_rss_bytes ())) ])

let occ_table ~from ~until =
  for seed = from to until - 1 do
    let _, _, wit = simulate ~seed in
    Printf.printf "%d %d\n%!" seed (occ_count (Spec.Abstract.transitive_closure wit))
  done

(* ---------- the traced single-domain loop ---------- *)

(* Span names. 0-4 are the node-loop phases, 5.. the calls into a
   layer; a layer's self time is its duration minus its children's, and
   layer spans have no children. *)
let span_names =
  [| "step"; "drain"; "issue"; "flush"; "tick"; "spsc.pop"; "wire.unseal";
     "store.receive"; "load"; "store.do_op.read"; "store.do_op.update";
     "store.send"; "wire.seal"; "spsc.push"; "store.tick" |]

let s_step = 0 and s_drain = 1 and s_issue = 2 and s_flush = 3 and s_tick = 4

let s_pop = 5 and s_unseal = 6 and s_receive = 7 and s_load = 8 and s_read = 9

let s_update = 10 and s_send = 11 and s_seal = 12 and s_push = 13 and s_stick = 14

let first_layer = s_pop

let ns () = Int64.to_int (Monotonic_clock.now ())

(* Spans are kept in memory — name, start, end, parent, run id — and
   aggregated as they close. The first [cap] spans are retained whole
   for the span file; totals cover every span. *)
module Tracer = struct
  type t = {
    on : bool;
    run : int;
    st_name : int array;
    st_start : int array;
    st_child : int array;
    st_id : int array;
    mutable depth : int;
    mutable next_id : int;
    total : int array;
    self : int array;
    count : int array;
    cap : int;
    b_name : int array;
    b_start : int array;
    b_end : int array;
    b_parent : int array;
  }

  let create ~on ~run ~cap =
    let k = Array.length span_names in
    let cap = if on then cap else 0 in
    {
      on;
      run;
      st_name = Array.make 8 0;
      st_start = Array.make 8 0;
      st_child = Array.make 8 0;
      st_id = Array.make 8 0;
      depth = 0;
      next_id = 0;
      total = Array.make k 0;
      self = Array.make k 0;
      count = Array.make k 0;
      cap;
      b_name = Array.make cap 0;
      b_start = Array.make cap 0;
      b_end = Array.make cap 0;
      b_parent = Array.make cap 0;
    }

  let enter t name =
    if t.on then begin
      let d = t.depth in
      t.st_name.(d) <- name;
      t.st_child.(d) <- 0;
      t.st_id.(d) <- t.next_id;
      t.next_id <- t.next_id + 1;
      t.depth <- d + 1;
      t.st_start.(d) <- ns ()
    end

  let leave t =
    if t.on then begin
      let stop = ns () in
      let d = t.depth - 1 in
      t.depth <- d;
      let name = t.st_name.(d) in
      let start = t.st_start.(d) in
      let dur = stop - start in
      t.total.(name) <- t.total.(name) + dur;
      t.self.(name) <- t.self.(name) + dur - t.st_child.(d);
      t.count.(name) <- t.count.(name) + 1;
      if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
      let id = t.st_id.(d) in
      if id < t.cap then begin
        t.b_name.(id) <- name;
        t.b_start.(id) <- start;
        t.b_end.(id) <- stop;
        t.b_parent.(id) <- (if d > 0 then t.st_id.(d - 1) else -1)
      end
    end

  let write t path =
    let oc = open_out path in
    output_string oc "run,id,parent,name,start_ns,end_ns\n";
    for id = 0 to min t.cap t.next_id - 1 do
      Printf.fprintf oc "%d,%d,%d,%s,%d,%d\n" t.run id t.b_parent.(id)
        span_names.(t.b_name.(id)) t.b_start.(id) t.b_end.(id)
    done;
    close_out oc
end

type frame = { bytes : string; updates : int }

type node = {
  me : int;
  mutable st : Stack.state;
  rng : Util.Rng.t;
  samp : Load.sampler;
  g : Load.gen;
  mutable last_tick : int;
  mutable unflushed_updates : int;
}

type counts = {
  mutable ops : int;
  mutable frames : int;
  mutable frame_updates : int;
  mutable sealed_bytes : int;
  mutable updates : int;
  mutable wire_bytes : int;
  mutable recv_frames : int;
  mutable recv_updates : int;
  mutable stalls : int;
  mutable w_do : float;
  mutable w_send : float;
  mutable w_recv : float;
}

let gossip_interval_ns = 1_000_000

(* The node loop of [Cluster] — drain every inbox, issue a batch, flush,
   tick on the gossip interval — for [replicas] nodes round-robin on one
   domain, with a span around each call into a layer. Minor words are
   read outside the spans so the counter reads are not billed to the
   layer. Returns the node-loop rounds run, their wall seconds and the
   counts. *)
(* The loop's inputs and state: rings, stores, samplers, generators. *)
let make_nodes ~workload ~seed =
  let shape = shape_of workload in
  let mix = Load.mix_of_read_pct shape.read_pct in
  let n = replicas in
  let rings = Array.init n (fun _ -> Array.init n (fun _ -> Spsc.create 1024)) in
  let t_start = ns () in
  let nodes =
    Array.init n (fun me ->
        {
          me;
          st = Stack.init ~n ~me;
          rng = Util.Rng.create (seed + (me * 1_000_003));
          samp = Load.sampler ~objects:shape.objects ~theta:shape.zipf;
          g = Load.gen ~replica:me mix;
          last_tick = t_start;
          unflushed_updates = 0;
        })
  in
  (rings, nodes)

let drive ~workload ~seed ~tr ~stop =
  let n = replicas in
  let rings, nodes = make_nodes ~workload ~seed in
  let c =
    { ops = 0; frames = 0; frame_updates = 0; sealed_bytes = 0; updates = 0; wire_bytes = 0;
      recv_frames = 0; recv_updates = 0; stalls = 0; w_do = 0.0; w_send = 0.0;
      w_recv = 0.0 }
  in
  let on = tr.Tracer.on in
  let words () = if on then Gc.minor_words () else 0.0 in
  let rec drain node =
    for src = 0 to n - 1 do
      if src <> node.me then begin
        let ring = rings.(src).(node.me) in
        let more = ref true in
        while !more do
          Tracer.enter tr s_pop;
          let f = Spsc.try_pop ring in
          Tracer.leave tr;
          match f with
          | None -> more := false
          | Some f ->
            Tracer.enter tr s_unseal;
            let payload = Wire.Frame.unseal f.bytes in
            Tracer.leave tr;
            let w0 = words () in
            Tracer.enter tr s_receive;
            node.st <- Stack.receive node.st ~sender:src payload;
            Tracer.leave tr;
            c.w_recv <- c.w_recv +. (words () -. w0);
            c.recv_frames <- c.recv_frames + 1;
            c.recv_updates <- c.recv_updates + f.updates
        done
      end
    done
  and flush node =
    while Stack.has_pending node.st do
      let w0 = words () in
      Tracer.enter tr s_send;
      let st, payload = Stack.send node.st in
      Tracer.leave tr;
      c.w_send <- c.w_send +. (words () -. w0);
      node.st <- st;
      Tracer.enter tr s_seal;
      let bytes = Wire.Frame.seal payload in
      Tracer.leave tr;
      let f = { bytes; updates = node.unflushed_updates } in
      c.frames <- c.frames + 1;
      c.frame_updates <- c.frame_updates + node.unflushed_updates;
      c.sealed_bytes <- c.sealed_bytes + String.length payload;
      c.wire_bytes <- c.wire_bytes + ((n - 1) * String.length bytes);
      node.unflushed_updates <- 0;
      for dst = 0 to n - 1 do
        if dst <> node.me then begin
          let pushed = ref false in
          while not !pushed do
            Tracer.enter tr s_push;
            pushed := Spsc.try_push rings.(node.me).(dst) f;
            Tracer.leave tr;
            if not !pushed then begin
              (* one domain: a full ring means the peer has not had its
                 turn yet; let it drain, as [run_inline] does *)
              c.stalls <- c.stalls + 1;
              drain nodes.(dst)
            end
          done
        end
      done
    done
  in
  let issue node =
    for _ = 1 to batch do
      Tracer.enter tr s_load;
      let obj = Load.sample node.samp node.rng in
      let op = Load.next node.g node.rng in
      Tracer.leave tr;
      let upd = Model.Op.is_update op in
      let w0 = words () in
      Tracer.enter tr (if upd then s_update else s_read);
      let st, _, _ = Stack.do_op node.st ~obj op in
      Tracer.leave tr;
      c.w_do <- c.w_do +. (words () -. w0);
      node.st <- st;
      c.ops <- c.ops + 1;
      if upd then begin
        c.updates <- c.updates + 1;
        node.unflushed_updates <- node.unflushed_updates + 1
      end
    done
  in
  let step node =
    Tracer.enter tr s_step;
    Tracer.enter tr s_drain;
    drain node;
    Tracer.leave tr;
    Tracer.enter tr s_issue;
    issue node;
    Tracer.leave tr;
    Tracer.enter tr s_flush;
    flush node;
    Tracer.leave tr;
    let now = ns () in
    if now - node.last_tick >= gossip_interval_ns then begin
      node.last_tick <- now;
      Tracer.enter tr s_tick;
      Tracer.enter tr s_stick;
      node.st <- Stack.tick node.st;
      Tracer.leave tr;
      flush node;
      Tracer.leave tr
    end;
    Tracer.leave tr
  in
  let iters = ref 0 in
  let t0 = ns () in
  while not (stop !iters (ns () - t0)) do
    Array.iter step nodes;
    incr iters
  done;
  (!iters, float_of_int (ns () - t0) *. 1e-9, c)

let traced ~workload ~seed ~seconds ~spans =
  let budget = int_of_float (seconds *. 1e9) in
  let tr = Tracer.create ~on:true ~run:seed ~cap:50_000 in
  let iters, t_wall, c = drive ~workload ~seed ~tr ~stop:(fun _ el -> el >= budget) in
  (* the same loop, untraced, for exactly as many node-loop rounds: the
     same inputs and state sizes, so the wall ratio is the tracing cost *)
  let off = Tracer.create ~on:false ~run:seed ~cap:0 in
  let _, u_wall, _ = drive ~workload ~seed ~tr:off ~stop:(fun i _ -> i >= iters) in
  Option.iter (Tracer.write tr) spans;
  let per name d = ratio tr.Tracer.total.(name) d in
  let per_call name = per name tr.Tracer.count.(name) in
  let layer_self = ref 0 in
  for k = first_layer to Array.length span_names - 1 do
    layer_self := !layer_self + tr.Tracer.self.(k)
  done;
  let wall_ns = t_wall *. 1e9 in
  let table =
    Array.to_list
      (Array.mapi
         (fun k name ->
           ( name,
             Json.Obj
               [
                 ("count", int tr.Tracer.count.(k));
                 ("self_ns", int tr.Tracer.self.(k));
                 ("total_ns", int tr.Tracer.total.(k));
               ] ))
         span_names)
  in
  let fl = float_of_int in
  emit
    [
      ("ok", Json.Bool true);
      ("iterations", int iters);
      ("ops", int c.ops);
      ("traced_wall_s", num t_wall);
      ("untraced_wall_s", num u_wall);
      ("spans", int tr.Tracer.next_id);
      ("stalls", int c.stalls);
      ("load.ns_per_op", num (per s_load c.ops));
      ("store.do_op.ns_per_read", num (per_call s_read));
      ("store.do_op.ns_per_update", num (per_call s_update));
      ("store.do_op.words_per_op", num (c.w_do /. fl (max 1 c.ops)));
      ("store.send.ns_per_frame", num (per_call s_send));
      ("store.send.updates_per_frame", num (ratio c.frame_updates c.frames));
      ("store.send.words_per_frame", num (c.w_send /. fl (max 1 c.frames)));
      ("wire.seal.ns_per_frame", num (per_call s_seal));
      ("wire.seal.ns_per_byte", num (per s_seal c.sealed_bytes));
      ("wire.unseal.ns_per_frame", num (per_call s_unseal));
      ("spsc.push_ns", num (per_call s_push));
      ("spsc.pop_ns", num (per_call s_pop));
      ("store.receive.ns_per_frame", num (per s_receive c.recv_frames));
      ("store.receive.ns_per_update", num (per s_receive c.recv_updates));
      ("store.receive.words_per_frame", num (c.w_recv /. fl (max 1 c.recv_frames)));
      ("store.tick.ns", num (per_call s_stick));
      ("trace.coverage", num (fl !layer_self /. wall_ns));
      ("trace.overhead", num ((t_wall /. u_wall) -. 1.0));
      ("self_time", Json.Obj table);
    ]

(* The untraced loop for [seconds] of this process's CPU time. CPU time,
   not wall time, because on a shared host the wall clock also counts
   the time the hypervisor gives this VM's vCPUs to others (steal), which
   drifts over minutes; CPU time leaves it out. The budget is checked
   every 64 node-loop rounds. *)
let loop ~workload ~seed ~seconds =
  let off = Tracer.create ~on:false ~run:seed ~cap:0 in
  let c0 = cpu_s () in
  let stop i _ = i land 63 = 0 && cpu_s () -. c0 >= seconds in
  let _, _, c = drive ~workload ~seed ~tr:off ~stop in
  let cpu = cpu_s () -. c0 in
  emit
    [
      ("ok", Json.Bool (c.updates > 0));
      ("why", Json.Str (if c.updates > 0 then "" else "no updates"));
      ("ops", int c.ops);
      ("updates", int c.updates);
      ("wire_bytes", int c.wire_bytes);
      ("cpu_s", num cpu);
      ("peak_rss_bytes", int (peak_rss_bytes ()));
    ]

(* ---------- set-up probe ---------- *)

(* Everything a run builds before its measured phase, then exit: the
   process start, the runtime and module initialisation, the inputs —
   for a live workload the node loop's state, which is what the gated
   live metrics run on. *)
let probe ~workload ~seed =
  (match workload with
  | "audit" -> ignore (audit_steps ~seed)
  | w -> ignore (make_nodes ~workload:w ~seed));
  emit [ ("ok", Json.Bool true); ("ops", int 0); ("t_call", num (wall ())) ]

(* ---------- command line ---------- *)

let () =
  let args = Array.to_list Sys.argv in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let get name conv default =
    match opt name args with Some v -> conv v | None -> default
  in
  let flag name = List.mem name args in
  let workload = get "--workload" Fun.id "live-write" in
  let seed = get "--seed" int_of_string 1 in
  let seconds = get "--seconds" float_of_string 1.0 in
  let trace = flag "--trace" in
  match args with
  | _ :: "live" :: _ -> live ~workload ~seed ~seconds ~cold:(flag "--cold")
  | _ :: "capture" :: _ ->
    capture ~workload ~seed ~seconds ~rate:(get "--rate" float_of_string 1000.0) ~trace
  | _ :: "audit" :: _ -> audit ~seed ~trace
  | _ :: "traced" :: _ -> traced ~workload ~seed ~seconds ~spans:(opt "--spans" args)
  | _ :: "probe" :: _ -> probe ~workload ~seed
  | _ :: "loop" :: _ -> loop ~workload ~seed ~seconds
  | _ :: "occ-table" :: _ ->
    occ_table ~from:(get "--from" int_of_string 0) ~until:(get "--to" int_of_string 1)
  | _ ->
    prerr_endline "usage: bench live|capture|audit|traced|probe|occ-table [options]";
    exit 2
