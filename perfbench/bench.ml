(* The arnet benchmark: one workload per process.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

   Workloads:
     nsfnet-replay  the paper's NSFNet (H = 11) under controlled_auto,
                    about 2M Poisson calls replayed with Engine.run
     mesh-storm     a 300-node degree-4 mesh (H = 6): Failure_engine
                    under SRLG storms, Route_table.patch changes, and a
                    daemon whose stream carries RELOAD, FAIL/REPAIR and
                    LINK DEL/ADD writes among the SETUP/TEARDOWNs

   Every workload goes through the same four phases on its own network,
   sized from [--seconds]: repeated set-up, replay slices, patches, and
   the daemon (one request at a time for latency, binary frames of 32
   commands for throughput).  CPU-bound timings are also given in reference seconds
   (see Meter); the latency tail is raw.  With --trace 1 the run also
   times each layer's public functions from here and records the
   per-layer metrics instead of the end-to-end ones.  The last line of
   standard output is one JSON object. *)

open Arnet_topology
module RT = Arnet_paths.Route_table
module Trace = Arnet_sim.Trace
module Engine = Arnet_sim.Engine
module Rng = Arnet_sim.Rng
module Matrix = Arnet_traffic.Matrix
module Fe = Arnet_failure.Failure_engine
module Wire = Arnet_service.Wire
module State = Arnet_service.State

type args = {
  seed : int;
  seconds : float;
  traced : bool;
  tiny : bool;
}

(* ------------------------------------------------------------------ *)
(* results *)

let end_to_end = ref []
let layers = ref []
let attempted = ref 0
let failed = ref 0

let e2e name unit v = end_to_end := (name, unit, v) :: !end_to_end
let layer name unit v = layers := (name, unit, v) :: !layers

(* one checked operation; a failure counts against [failed] *)
let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "check failed: %s\n%!" what
  end

let checks n bad what =
  attempted := !attempted + n;
  if bad > 0 then begin
    failed := !failed + bad;
    Printf.eprintf "check failed: %s (%d of %d)\n%!" what bad n
  end

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* shared helpers *)

(* [k] directed links whose removal keeps [graph] strongly connected,
   as (src, dst, capacity).  They are the same for every seed: what a
   patch costs depends mostly on which link it touches. *)
let removable_links graph k =
  let rng = Rng.create ~seed:0 in
  let links = Graph.links graph in
  let m = Array.length links in
  let chosen = ref [] in
  let tries = ref 0 in
  while List.length !chosen < k && !tries < 50 * k do
    incr tries;
    let l = links.(Rng.int rng m) in
    let key = (l.Link.src, l.Link.dst, l.Link.capacity) in
    if
      (not (List.mem key !chosen))
      && Graph.is_strongly_connected
           (Graph.without_links graph [ (l.Link.src, l.Link.dst) ])
    then chosen := key :: !chosen
  done;
  Array.of_list (List.rev !chosen)

let srlg_storm ~rng ~(trace : Trace.t) graph =
  let d = trace.Trace.duration in
  Arnet_failure.Model.srlg ~rng ~duration:d ~mtbf:d ~mttr:(d /. 50.)
    ~groups:(Arnet_failure.Model.edge_groups graph)
    graph

let trace_of ~rng ~calls matrix =
  Trace.generate ~rng ~duration:(float_of_int calls /. Matrix.total matrix) matrix

let same_stats (a : Arnet_sim.Stats.t) (b : Arnet_sim.Stats.t) =
  a.offered = b.offered && a.blocked = b.blocked
  && a.carried_primary = b.carried_primary
  && a.carried_alternate = b.carried_alternate

(* ------------------------------------------------------------------ *)
(* per-layer probes (traced runs only) *)

let clock_pair_s =
  lazy
    (let n = 1_000_000 in
     let t0 = Meter.now () in
     for _ = 1 to n do
       ignore (Sys.opaque_identity (Meter.now ()));
       ignore (Sys.opaque_identity (Meter.now ()))
     done;
     (Meter.now () -. t0) /. float_of_int n)

(* Engine.run untraced, then with the policy's [decide] wrapped and
   timed call by call: the decide share, the attempts each call makes
   (primary, then alternates in table order) and the tracing
   overhead. *)
let engine_probe ~graph ~routes ~(policy : Engine.policy) ~(trace : Trace.t) =
  let calls = Trace.call_count trace in
  let run p = ignore (Sys.opaque_identity (Engine.run ~graph ~policy:p trace)) in
  run policy;
  let w0 = Meter.allocated_words () in
  run policy;
  let words = (Meter.allocated_words () -. w0) /. float_of_int calls in
  let plain = Meter.slices ~budget:0.6 ~min:3 (fun _ -> run policy; calls) in
  let decide_s = ref 0. and decides = ref 0 in
  let attempts = ref 0 and routed = ref 0 and alternates = ref 0 in
  let wrapped =
    { policy with
      Engine.decide =
        (fun ~occupancy ~call ->
          let t = Meter.now () in
          let r = policy.Engine.decide ~occupancy ~call in
          decide_s := !decide_s +. (Meter.now () -. t);
          incr decides;
          let alts = RT.alternate_array routes ~src:call.Trace.src ~dst:call.Trace.dst in
          (match r with
          | Engine.Routed p when policy.Engine.is_primary ~call p ->
            incr routed;
            incr attempts
          | Engine.Routed p ->
            incr routed;
            incr alternates;
            let j = ref 0 in
            while !j < Array.length alts && alts.(!j) != p do incr j done;
            attempts := !attempts + 2 + !j
          | Engine.Lost -> attempts := !attempts + 1 + Array.length alts);
          r) }
  in
  let traced = Meter.slices ~budget:0.6 ~min:3 (fun _ -> run wrapped; calls) in
  let ns_per_call = 1e9 *. Meter.per_unit_raw plain in
  let pair = Lazy.force clock_pair_s in
  let decide_ns =
    1e9 *. ((!decide_s /. float_of_int (max 1 !decides)) -. (pair /. 2.))
  in
  layer "engine.ns_per_call" "ns" ns_per_call;
  layer "engine.words_per_call" "words" words;
  layer "controller.decide_ns" "ns" decide_ns;
  layer "controller.attempts_per_call" "count"
    (float_of_int !attempts /. float_of_int (max 1 !decides));
  layer "controller.alternate_share" "ratio"
    (float_of_int !alternates /. float_of_int (max 1 !routed));
  layer "tracing.overhead" "ratio"
    ((Meter.per_unit_raw traced /. Meter.per_unit_raw plain) -. 1.);
  (ns_per_call, decide_ns)

(* the engine's queue pattern through the public Event_queue API: per
   arrival, pop every departure due by then, push its own departure *)
let queue_probe (trace : Trace.t) =
  let module Q = Arnet_sim.Event_queue in
  let n = Trace.call_count trace in
  let slices =
    Meter.slices ~budget:0.4 ~min:3 (fun _ ->
        let q = Q.create () in
        for i = 0 to n - 1 do
          while Q.next_due q ~deadlines:trace.Trace.times i do
            ignore (Sys.opaque_identity (Q.pop_payload q))
          done;
          Q.push_at q ~times:trace.Trace.ends i i
        done;
        n)
  in
  let ns = 1e9 *. Meter.per_unit_raw slices in
  layer "event_queue.push_pop_ns" "ns" ns;
  ns

let trace_probe ~rng ~calls matrix =
  Gc.compact ();
  let w0 = Meter.allocated_words () in
  let t, s = Meter.time (fun () -> trace_of ~rng ~calls matrix) in
  let words = Meter.allocated_words () -. w0 in
  let n = float_of_int (Trace.call_count t) in
  layer "trace.generate_ns_per_call" "ns" (1e9 *. s /. n);
  layer "trace.words_per_call" "words" (words /. n)

let build_probe ~h graph =
  let before = Meter.live_words () in
  let rt, s = Meter.time (fun () -> RT.build ~h graph) in
  let after = Meter.live_words () in
  ignore (Sys.opaque_identity rt);
  layer "route_table.build_s" "s" s;
  layer "route_table.live_mb" "MiB" (Meter.mib_of_words (after - before))

(* one storm replay's counts, and its time per call *)
let failure_layers ~ns_per_call (st : Fe.stats) =
  layer "failure_engine.ns_per_call" "ns" ns_per_call;
  layer "failure_engine.dropped" "count" (float_of_int st.Fe.dropped);
  layer "failure_engine.failovers" "count" (float_of_int st.Fe.failovers)

let state_probe ~make_state ~pair =
  let st = make_state () in
  let src, dst, capacity = pair in
  let pairs =
    Meter.slices ~budget:0.3 ~min:2 (fun _ ->
        ignore (State.link_del st ~src ~dst);
        ignore (State.link_add st ~src ~dst ~capacity);
        1)
  in
  layer "state.link_pair_s" "s" (Meter.per_unit_raw pairs);
  let reloads =
    Meter.slices ~budget:0.2 ~min:2 (fun _ ->
        let n = ref 0 in
        let t0 = Meter.now () in
        while Meter.now () -. t0 < 0.05 do
          ignore (State.reload st);
          incr n
        done;
        !n)
  in
  layer "state.reload_ms" "ms" (1e3 *. Meter.per_unit_raw reloads)

(* the wire codec over the stream's own commands, in-process *)
let wire_probe (stream : Serve.stream) =
  let cmds = stream.Serve.commands in
  let n = Array.length cmds in
  let lines = Array.map String.trim stream.Serve.lines in
  let per_cmd f =
    let s =
      Meter.slices ~budget:0.2 ~min:2 (fun _ ->
          Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) cmds;
          n)
    in
    1e9 *. Meter.per_unit_raw s
  in
  let print_ns = per_cmd Wire.print_command in
  let parse_s =
    Meter.slices ~budget:0.2 ~min:2 (fun _ ->
        Array.iter (fun l -> ignore (Sys.opaque_identity (Wire.parse_command l))) lines;
        n)
  in
  let parse_ns = 1e9 *. Meter.per_unit_raw parse_s in
  let w0 = Meter.allocated_words () in
  Array.iteri
    (fun i c ->
      ignore (Sys.opaque_identity (Wire.parse_command lines.(i)));
      ignore (Sys.opaque_identity (Wire.print_command c)))
    cmds;
  layer "wire.parse_ns" "ns" parse_ns;
  layer "wire.print_ns" "ns" print_ns;
  layer "wire.words_per_cmd" "words" ((Meter.allocated_words () -. w0) /. float_of_int n);
  (parse_ns, print_ns)


(* ------------------------------------------------------------------ *)
(* the daemon phase, common to every workload *)

type serve_net = {
  make_state : unit -> State.t;
  matrix : Matrix.t;
  controls : (base_s:float -> Serve.controls) option;
      (** writes beside the decisions, given the base phase's length *)
}

(* the closed-loop stream: [stream_decisions] SETUP/TEARDOWNs rendered
   as if paced at [nominal_rate], which spaces the cheap writes
   [nominal_rate] * [every] decisions apart *)
let stream_decisions args = if args.tiny then 10_000 else 100_000
let nominal_rate = 50_000.

(* latency passes pause for a kernel run after this many replies *)
let latency_chunk = 5000

(* throughput passes send frames of this many commands, the batch size
   of [arn load --binary --batch 32] and of the repo's serve-scaling
   bench floor *)
let batch = 32

(* the open-loop diagnostic of traced runs: a base rate, then a fixed
   geometric ladder of offered rates *)
let base_rate = 4000.
let ladder_start = 20_000.
let ladder_step = 1.06

type served = {
  stream : Serve.stream;
  replay : Serve.replay option;  (** the timed in-process replay, if run *)
  p50_us : float;  (** raw one-at-a-time median, for the residual *)
}

let stream_for ~rng ~state net plan decisions =
  let trace = trace_of ~rng ~calls:(int_of_float (0.7 *. decisions) + 1000) net.matrix in
  Serve.build ~state ~trace plan

(* one pass of [f] against a fresh daemon, drained afterwards in the
   connection's framing *)
let with_daemon ?(binary = false) net ~stream f =
  Gc.compact ();
  let daemon = Serve.start_daemon (net.make_state ()) in
  let fd = Serve.connect daemon.Serve.port in
  let sent, v = f fd in
  (match Serve.stop_daemon daemon ~fd ~stream ~sent ~binary with
  | Ok () -> check true "the daemon drained"
  | Error e -> check false ("the daemon drained: " ^ Printexc.to_string e));
  v

let check_pass stream (p : Serve.pass) =
  let n = Array.length stream.Serve.lines in
  checks n (n - p.Serve.answered_all) "requests left unanswered";
  checks p.Serve.answered_all p.Serve.mismatched
    "daemon replies differ from the in-process replay";
  Option.iter (fun w -> Printf.eprintf "first difference: %s\n%!" w) p.Serve.mismatch

(* The open-loop diagnostic: the stream paced at [base_rate] for 55% of
   [budget], then up the fixed ladder until a rung's p99 passes
   [Serve.slo_s] or its backlog grows.  Latency is timed from due
   instants.  On a shared VM, host scheduling stalls of milliseconds
   reach the 1% tail here, which is why these figures are per-layer
   diagnostics and the gated latencies come from one-at-a-time passes. *)
let open_loop ~budget ~rng net =
  let base_s = 0.55 *. budget and rung_s = 0.2 in
  let rungs = max 1 (int_of_float (0.45 *. budget /. rung_s)) in
  let plan =
    { Serve.base_rate;
      base_s;
      warmup_s = Float.min 0.5 (0.2 *. base_s);
      rung_rates =
        Array.init rungs (fun k -> ladder_start *. (ladder_step ** float_of_int k));
      rung_s;
      controls = Option.map (fun c -> c ~base_s) net.controls }
  in
  let decisions =
    Array.fold_left (fun acc r -> acc +. (r *. rung_s)) (base_rate *. base_s)
      plan.Serve.rung_rates
  in
  let stream = stream_for ~rng ~state:(net.make_state ()) net plan decisions in
  let d =
    with_daemon net ~stream (fun fd ->
        let d = Serve.drive ~fd ~stream ~plan ~timeout:(budget +. 30.) in
        (d.Serve.sent, d))
  in
  checks d.Serve.sent (d.Serve.sent - d.Serve.answered) "requests left unanswered";
  checks d.Serve.answered d.Serve.wrong "daemon replies differ from the in-process replay";
  Option.iter (fun w -> Printf.eprintf "first difference: %s\n%!" w) d.Serve.first_wrong;
  let base = ref [] and late = ref [] in
  for i = 0 to d.Serve.answered - 1 do
    if
      stream.Serve.decision.(i)
      && stream.Serve.segment.(i) = 0
      && stream.Serve.due.(i) >= plan.Serve.warmup_s
    then begin
      base := d.Serve.recv.(i) :: !base;
      late := d.Serve.late.(i) :: !late
    end
  done;
  let base = Array.of_list !base in
  layer "serve.open_p50_us" "us" (1e6 *. Meter.median base);
  layer "serve.open_p99_us" "us" (1e6 *. Meter.quantile base 0.99);
  layer "serve.slo_rate" "1/s"
    (if d.Serve.passed > 0 then d.Serve.rung_rate.(d.Serve.passed - 1) else base_rate);
  layer "client.late_p99_ms" "ms" (1e3 *. Meter.quantile (Array.of_list !late) 0.99);
  layer "client.in_flight_max" "count" (float_of_int d.Serve.in_flight_max)

(* The daemon phase: render the stream, optionally time its in-process
   replay for [replay_s] seconds, then run it against fresh daemons:
   line passes with one request at a time for latency (45% of
   [budget]), binary passes of [batch]-command frames for throughput
   (the rest).  Traced runs add an open-loop pass. *)
let serve_phase args ~budget ~replay_s ~rng net =
  let traced = args.traced in
  let decisions = float_of_int (stream_decisions args) in
  let plan =
    { Serve.base_rate = nominal_rate;
      base_s = decisions /. nominal_rate;
      warmup_s = 0.;
      rung_rates = [||];
      rung_s = 1.;
      controls =
        Option.map
          (fun c -> { (c ~base_s:(decisions /. nominal_rate)) with Serve.quiet = 0. })
          net.controls }
  in
  let stream = stream_for ~rng ~state:(net.make_state ()) net plan decisions in
  let replay =
    if replay_s > 0. then begin
      let r =
        Serve.replay ~make_state:net.make_state ~stream ~budget:replay_s ~min:3
      in
      checks r.Serve.commands_checked r.Serve.mismatches
        "in-process replay differs from the rendering replay";
      Some r
    end
    else None
  in
  let n = Array.length stream.Serve.lines in
  let run_pass ~every ~pause =
    with_daemon net ~stream (fun fd ->
        let p = Serve.pass ~every ~pause ~fd ~stream in
        check_pass stream p;
        (p.Serve.answered_all, p))
  in
  (* latency: pooled one-at-a-time round trips.  A round trip is CPU work on
     one core (system calls, two context switches, the decision), so it
     is also given in reference seconds, by the median kernel time of
     kernel runs taken every [latency_chunk] replies during the passes *)
  let deadline = Meter.now () +. (0.45 *. budget) in
  let kernels = ref [ Meter.kernel () ] in
  let pause _ = kernels := Meter.kernel () :: !kernels in
  let rec latency acc k =
    if k >= 2 && Meter.now () >= deadline then acc
    else begin
      let p = run_pass ~every:latency_chunk ~pause in
      pause ();
      latency (p.Serve.latency :: acc) (k + 1)
    end
  in
  let passes = latency [] 0 in
  let raw = Array.concat passes in
  let scale = Meter.nominal_kernel_s /. Meter.median (Array.of_list !kernels) in
  let lat = Array.map (fun x -> x *. scale) raw in
  let samples = Array.length lat in
  check (samples >= 1000) "at least 10 latency samples beyond p99";
  (* the round trips mix a fast and a slow mode whose weights shift
     between identical runs, and the median can land in either: it
     moved by up to 20% between runs, so p90, inside the slow mode, is
     the gated figure *)
  layer "serve.p50_us" "us" (1e6 *. Meter.median lat);
  e2e "p90_us" "us" (1e6 *. Meter.quantile lat 0.90);
  (* p99 is the median over chunks of [latency_chunk] round trips (50
     beyond each chunk's p99) of the chunk's p99, raw: the tail is set
     by interruptions more than by CPU speed.  Between identical runs it
     still moves by 10-25%, too much to gate with a 25% bound, so it is
     a per-layer figure and p90 is the gated tail *)
  let chunk_p99 =
    List.concat_map
      (fun l ->
        List.init
          (Array.length l / latency_chunk)
          (fun c -> Meter.quantile (Array.sub l (c * latency_chunk) latency_chunk) 0.99))
      passes
  in
  layer "serve.p99_us" "us" (1e6 *. Meter.median (Array.of_list chunk_p99));
  let p50_us = 1e6 *. Meter.median raw in
  layer "raw.p50_us" "us" p50_us;
  layer "serve.samples" "count" (float_of_int samples);
  (* throughput: one sample per whole binary pass, its writes included,
     between two kernel runs on the open connection *)
  let frames = Serve.frames ~batch stream in
  let deadline = Meter.now () +. (0.55 *. budget) in
  let rec throughput acc k =
    if k >= 3 && Meter.now () >= deadline then acc
    else begin
      let slice =
        with_daemon ~binary:true net ~stream (fun fd ->
            let before = Meter.kernel () in
            let b = Serve.batch_pass ~fd ~stream ~frames in
            let after = Meter.kernel () in
            checks n (n - b.Serve.answered) "requests left unanswered";
            checks b.Serve.answered b.Serve.wrong
              "daemon replies differ from the in-process replay";
            Option.iter (fun w -> Printf.eprintf "first difference: %s\n%!" w)
              b.Serve.first_wrong;
            ( b.Serve.answered,
              { Meter.wall = b.Serve.wall; calib = (before +. after) /. 2.; work = n } ))
      in
      throughput (slice :: acc) (k + 1)
    end
  in
  let tp = throughput [] 0 in
  e2e "serve_req_per_s" "1/s" (Meter.rate_ref tp);
  layer "raw.serve_req_per_s" "1/s" (Meter.rate_raw tp);
  say "serve: %d commands, %d latency samples, %d binary passes of %d frames, %.3f s each" n
    samples (List.length tp) (Array.length frames.Serve.sends)
    (Meter.median_by (fun s -> s.Meter.wall) tp);
  if traced then open_loop ~budget:(0.3 *. budget) ~rng net;
  { stream; replay; p50_us }

(* the socket and codec layers of a traced run, and what they leave
   unexplained of p50 *)
let serve_layers served =
  let stream = served.stream in
  let parse_ns, print_ns = wire_probe stream in
  let replay =
    match served.replay with
    | Some r -> r
    | None -> invalid_arg "serve_layers: the traced run times the replay"
  in
  (* replay slices count SETUPs; handle_ns is per decision command *)
  let decisions =
    Array.fold_left (fun a d -> if d then a + 1 else a) 0 stream.Serve.decision
  in
  let handle_ns =
    1e9 *. Meter.per_unit_raw replay.Serve.decisions
    *. float_of_int stream.Serve.setups /. float_of_int decisions
  in
  layer "session.handle_ns" "ns" handle_ns;
  let rtt_us = 1e6 *. Serve.echo_rtt ~count:20_000 in
  layer "server.transport_rtt_us" "us" rtt_us;
  layer "server.unexplained_us" "us"
    (served.p50_us -. rtt_us -. ((parse_ns +. handle_ns +. print_ns) /. 1e3))

(* ------------------------------------------------------------------ *)
(* workloads *)

let setup_metrics slices =
  e2e "setup_s" "s" (Meter.per_unit_ref slices);
  layer "raw.setup_s" "s" (Meter.per_unit_raw slices)

let replay_metrics slices =
  e2e "calls_per_s" "1/s" (Meter.rate_ref slices);
  layer "raw.calls_per_s" "1/s" (Meter.rate_raw slices);
  layer "host.calib_s" "s" (Meter.calib_median slices)

let patch_metrics slices =
  e2e "patch_s" "s" (Meter.per_unit_ref slices);
  layer "raw.patch_s" "s" (Meter.per_unit_raw slices)

(* route_table.patch_* from timed single changes *)
let patch_layers ~nodes ~recomputed slices =
  let pairs = Meter.median (Array.of_list (List.map float_of_int recomputed)) in
  layer "route_table.patch_s" "s" (Meter.per_unit_raw slices);
  layer "route_table.patch_pairs" "count" pairs;
  layer "route_table.patch_pair_share" "ratio"
    (pairs /. float_of_int (nodes * (nodes - 1)))

(* [RT.patch] remove/add pairs over [links] in turn, in slices of whole
   pairs lasting at least 50 ms: many pairs on NSFNet, where a change
   takes about a millisecond, one on the mesh.  The links cost
   differently, so every run patches the same ones in the same order. *)
let patch_slices ~budget ~min table links =
  let table = ref table and turn = ref 0 and recomputed = ref [] in
  let slices =
    Meter.slices ~budget ~min (fun _ ->
        let t0 = Meter.now () and changes = ref 0 in
        while !changes = 0 || Meter.now () -. t0 < 0.05 do
          let src, dst, capacity = links.(!turn mod Array.length links) in
          incr turn;
          let t1, r1 = RT.patch !table [ RT.Remove_link { src; dst } ] in
          let t2, r2 = RT.patch t1 [ RT.Add_link { src; dst; capacity } ] in
          table := t2;
          recomputed := r1 :: r2 :: !recomputed;
          changes := !changes + 2
        done;
        !changes)
  in
  check
    (RT.equal !table (RT.build ~h:(RT.h !table) (RT.graph !table)))
    "the patched table equals a fresh build on the final graph";
  (slices, !recomputed)

(* the layers every traced run reports from its own network *)
let engine_layers ~graph ~routes ~policy ~trace =
  let engine_ns, decide_ns = engine_probe ~graph ~routes ~policy ~trace in
  let queue_ns = queue_probe trace in
  layer "engine.unexplained_ns" "ns" (engine_ns -. decide_ns -. queue_ns)

let nsfnet_replay args =
  let segments = 5 and calls = if args.tiny then 20_000 else 400_000 in
  let setup () =
    let routes, fit = Arnet_traffic.Fit.nsfnet_nominal () in
    let matrix = fit.Arnet_traffic.Fit.matrix in
    let policy = Arnet_core.Scheme.controlled_auto ~h:11 ~matrix routes in
    let rng = Rng.create ~seed:args.seed in
    let traces =
      Array.init segments (fun i ->
          trace_of ~rng:(Rng.substream rng (Printf.sprintf "segment-%d" i)) ~calls matrix)
    in
    (routes, matrix, policy, traces)
  in
  let (routes, matrix, policy, traces), setup_slices = Meter.setups ~reps:3 setup in
  setup_metrics setup_slices;
  let graph = RT.graph routes in
  (* one slice is one Engine.run over one segment *)
  let first = Array.make segments None in
  let replay =
    Meter.slices ~budget:(0.4 *. args.seconds) ~min:segments ~round:segments (fun i ->
        let k = i mod segments in
        let st = Engine.run ~graph ~policy traces.(k) in
        (match first.(k) with
        | None -> first.(k) <- Some st
        | Some s0 -> check (same_stats s0 st) "a repeated replay returns identical counts");
        Trace.call_count traces.(k))
  in
  replay_metrics replay;
  let reserves = Arnet_core.Protection.levels routes matrix ~h:11 in
  let fe =
    Fe.run ~graph
      ~policy:(Arnet_failure.Fault_scheme.controlled ~reserves routes)
      traces.(0)
  in
  (match first.(0) with
  | Some s0 ->
    check (same_stats s0 fe.Fe.core) "Engine.run equals Failure_engine.run with no script"
  | None -> check false "segment 0 was replayed");
  let rng = Rng.substream (Rng.create ~seed:args.seed) "patch" in
  let links = removable_links graph 8 in
  let patches, recomputed =
    patch_slices ~budget:(0.1 *. args.seconds) ~min:3 routes links
  in
  patch_metrics patches;
  let net =
    { make_state = (fun () -> State.create ~matrix graph); matrix; controls = None }
  in
  let served =
    serve_phase args ~budget:(0.5 *. args.seconds)
      ~replay_s:(if args.traced then 0.5 else 0.)
      ~rng:(Rng.substream (Rng.create ~seed:args.seed) "serve") net
  in
  if args.traced then begin
    trace_probe ~rng:(Rng.create ~seed:args.seed) ~calls matrix;
    engine_layers ~graph ~routes ~policy ~trace:traces.(0);
    build_probe ~h:(RT.h routes) graph;
    patch_layers ~nodes:(Graph.node_count graph) ~recomputed patches;
    let script = srlg_storm ~rng:(Rng.substream rng "storm") ~trace:traces.(0) graph in
    let st, s =
      Meter.time (fun () ->
          Fe.run ~script ~graph
            ~policy:(Arnet_failure.Fault_scheme.controlled ~reserves routes)
            traces.(0))
    in
    failure_layers ~ns_per_call:(1e9 *. s /. float_of_int calls) st;
    state_probe ~make_state:net.make_state ~pair:links.(0);
    serve_layers served
  end

let mesh_storm args =
  let nodes = if args.tiny then 40 else 300 in
  let segments = 4 and calls = if args.tiny then 6_000 else 75_000 in
  (* the topology is fixed; the seed draws the calls and the storms *)
  let topo = Arnet_ingest.Mesh.random_mesh ~nodes () in
  let graph = topo.Arnet_ingest.Topo.graph in
  let matrix = Arnet_ingest.Mesh.gravity topo in
  let setup () =
    let routes = RT.build ~h:6 graph in
    let reserves = Arnet_core.Protection.levels routes matrix ~h:6 in
    let rng = Rng.create ~seed:args.seed in
    let storms =
      Array.init segments (fun i ->
          let rng = Rng.substream rng (Printf.sprintf "segment-%d" i) in
          let trace = trace_of ~rng:(Rng.substream rng "calls") ~calls matrix in
          (trace, srlg_storm ~rng:(Rng.substream rng "storm") ~trace graph))
    in
    (routes, reserves, storms)
  in
  let (routes, reserves, storms), setup_slices = Meter.setups ~reps:3 setup in
  setup_metrics setup_slices;
  let trace = fst storms.(0) in
  let policy = Arnet_failure.Fault_scheme.controlled ~reserves routes in
  (* one slice is one Failure_engine.run over one segment and its storm *)
  let first = Array.make segments None in
  let replay =
    Meter.slices ~budget:(0.3 *. args.seconds) ~min:segments ~round:segments (fun i ->
        let k = i mod segments in
        let trace, script = storms.(k) in
        let st = Fe.run ~script ~graph ~policy trace in
        (match first.(k) with
        | None -> first.(k) <- Some st
        | Some s0 ->
          check
            (same_stats s0.Fe.core st.Fe.core && s0.Fe.dropped = st.Fe.dropped
           && s0.Fe.failovers = st.Fe.failovers)
            "a repeated storm replay returns identical counts");
        Trace.call_count trace)
  in
  replay_metrics replay;
  let links = removable_links graph 6 in
  let patches, recomputed =
    patch_slices ~budget:0. ~min:(if args.tiny then 2 else 12) routes links
  in
  patch_metrics patches;
  (* the daemon's stream carries writes among the decisions: RELOAD,
     FAIL k and REPAIR k every 25k decisions, and a LINK DEL/ADD pair
     that restores the topology.  In the open-loop pass of traced runs
     each LINK write opens a decision-free window *)
  let rng = Rng.substream (Rng.create ~seed:args.seed) "writes" in
  let fail_links = Array.init 8 (fun _ -> Rng.int rng (Graph.link_count graph - 1)) in
  let controls ~base_s =
    { Serve.every = 0.5;
      fail_links;
      link_at = [ 0.3 *. base_s; 0.7 *. base_s ];
      link_pairs = [| links.(0) |];
      quiet = 0.5 }
  in
  let net =
    { make_state = (fun () -> State.create ~h:6 ~matrix graph);
      matrix;
      controls = Some controls }
  in
  let served =
    serve_phase args ~budget:(0.5 *. args.seconds)
      ~replay_s:(if args.traced then 0.5 else 0.)
      ~rng:(Rng.substream (Rng.create ~seed:args.seed) "serve") net
  in
  if args.traced then begin
    trace_probe ~rng:(Rng.create ~seed:args.seed) ~calls matrix;
    engine_layers ~graph ~routes
      ~policy:(Arnet_core.Scheme.controlled ~reserves routes) ~trace;
    build_probe ~h:6 graph;
    patch_layers ~nodes ~recomputed patches;
    Option.iter (failure_layers ~ns_per_call:(1e9 *. Meter.per_unit_raw replay)) first.(0);
    state_probe ~make_state:net.make_state ~pair:links.(0);
    serve_layers served
  end

let workloads = [ ("nsfnet-replay", nsfnet_replay); ("mesh-storm", mesh_storm) ]

(* ------------------------------------------------------------------ *)
(* output *)

let json_metrics l =
  String.concat ", "
    (List.map
       (fun (name, unit, v) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       l)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. in
  let traced = ref 0 and tiny = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int traced, "0|1 per-layer metrics instead of end-to-end");
      ("--tiny", Arg.Set tiny, " tiny inputs, for the self-test") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      Printf.eprintf "unknown workload %S (expected one of: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  let args =
    { seed = !seed; seconds = !seconds; traced = !traced = 1; tiny = !tiny }
  in
  run args;
  e2e "peak_rss_mb" "MiB" (Meter.peak_rss_mb ());
  let metrics = List.rev (if args.traced then !layers else !end_to_end) in
  (* the table shows everything measured; the record carries one set *)
  List.iter
    (fun (name, unit, v) -> say "%-32s %14.6g %s" name v unit)
    (List.rev !end_to_end @ List.rev !layers);
  say "%-32s %14.6g %s" "error_rate"
    (float_of_int !failed /. float_of_int (max 1 !attempted)) "ratio";
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  if not finite then Printf.eprintf "a metric is not a finite number\n%!";
  let metrics = List.filter (fun (_, _, v) -> Float.is_finite v) metrics in
  say "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0 && finite) !attempted !failed (json_metrics metrics)
