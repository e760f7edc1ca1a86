open Arnet_topology
open Arnet_paths

type outcome = Routed of Path.t | Lost

type policy = {
  name : string;
  decide : occupancy:int array -> call:Trace.call -> outcome;
  is_primary : call:Trace.call -> Path.t -> bool;
}

(* process-wide odometer: one Array.length per run, so the per-call hot
   path pays nothing.  Atomic because replications may run on several
   domains at once; benchmarks read the delta to report calls/sec. *)
let simulated_calls = Atomic.make 0

let calls_simulated () = Atomic.get simulated_calls

exception
  Replication_failure of { seed : int; policy : string; exn : exn }

let () =
  Printexc.register_printer (function
    | Replication_failure { seed; policy; exn } ->
      Some
        (Printf.sprintf
           "Arnet_sim.Engine.Replication_failure(seed=%d, policy=%S): %s"
           seed policy (Printexc.to_string exn))
    | _ -> None)

(* closure-free per-link walks: defined once per run (they close over
   the run's occupancy/capacity arrays) and recurse with int arguments
   only, so the admit/release hot path allocates nothing *)
let run ?(warmup = 10.) ?observer ~graph ~policy trace =
  let { Trace.times; holdings; ends; duration; matrix; _ } = trace in
  let n = Trace.call_count trace in
  if warmup < 0. || warmup >= duration then
    invalid_arg "Engine.run: warmup must be in [0, duration)";
  if Arnet_traffic.Matrix.nodes matrix <> Graph.node_count graph then
    invalid_arg "Engine.run: trace/graph size mismatch";
  let m = Graph.link_count graph in
  let capacity = Array.make m 0 in
  Graph.iter_links
    (fun l -> capacity.(l.Link.id) <- l.Link.capacity)
    graph;
  ignore (Atomic.fetch_and_add simulated_calls n : int);
  let occupancy = Array.make m 0 in
  let departures : int array Event_queue.t = Event_queue.create () in
  let stats = Stats.empty ~nodes:(Graph.node_count graph) in
  (match observer with
  | Some f ->
    f
      (Arnet_obs.Event.Run_start
         { policy = policy.name;
           warmup;
           duration;
           nodes = Graph.node_count graph;
           links = m })
  | None -> ());
  let rec release_ids link_ids i =
    if i < Array.length link_ids then begin
      let id = Array.unsafe_get link_ids i in
      occupancy.(id) <- occupancy.(id) - 1;
      assert (occupancy.(id) >= 0);
      release_ids link_ids (i + 1)
    end
  in
  let release time link_ids =
    release_ids link_ids 0;
    match observer with
    | Some f -> f (Arnet_obs.Event.Departure { time; links = link_ids })
    | None -> ()
  in
  let rec occupy ids i =
    if i < Array.length ids then begin
      let id = Array.unsafe_get ids i in
      if id < 0 || id >= m then
        invalid_arg "Engine.run: policy routed over unknown link";
      if occupancy.(id) >= capacity.(id) then
        invalid_arg "Engine.run: policy routed over a full link";
      occupancy.(id) <- occupancy.(id) + 1;
      occupy ids (i + 1)
    end
  in
  (* the departure payload aliases the path's own immutable link_ids
     (see Path.t) — no per-admit copy; the deadline is read from the
     trace's packed [ends] column so no float is boxed *)
  let admit i (p : Path.t) =
    occupy p.Path.link_ids 0;
    Event_queue.push_at departures ~times:ends i p.Path.link_ids
  in
  (* one cursor for the whole run: [Trace.seek] moves it to each
     arrival, and every read below goes to the packed columns, so the
     per-call path neither allocates nor boxes *)
  let call = Trace.cursor trace in
  let handle i =
    Trace.seek call i;
    let src = call.Trace.src and dst = call.Trace.dst in
    (match observer with
    | None ->
      while Event_queue.next_due departures ~deadlines:times i do
        release_ids (Event_queue.pop_payload departures) 0
      done
    | Some _ ->
      Event_queue.pop_until departures ~time:times.(i) ~f:release);
    let measured = times.(i) >= warmup in
    (match observer with
    | Some f ->
      f
        (Arnet_obs.Event.Arrival
           { time = times.(i); src; dst; holding = holdings.(i) })
    | None -> ());
    if measured then Stats.record_offered stats ~src ~dst;
    match policy.decide ~occupancy ~call with
    | Lost ->
      (match observer with
      | Some f -> f (Arnet_obs.Event.Block { time = times.(i); src; dst })
      | None -> ());
      if measured then Stats.record_blocked stats ~src ~dst
    | Routed p ->
      if Path.src p <> src || Path.dst p <> dst then
        invalid_arg "Engine.run: policy routed to wrong endpoints";
      admit i p;
      if measured || Option.is_some observer then begin
        let primary = policy.is_primary ~call p in
        (match observer with
        | Some f ->
          f
            (Arnet_obs.Event.Admit
               { time = times.(i);
                 src;
                 dst;
                 hops = Path.hops p;
                 primary;
                 links = p.Path.link_ids })
        | None -> ());
        if measured then
          if primary then Stats.record_primary stats
          else Stats.record_alternate stats ~hops:(Path.hops p)
      end
  in
  for i = 0 to n - 1 do
    handle i
  done;
  (match observer with
  | Some f ->
    (* drain departures that fall inside the run so the trace balances *)
    Event_queue.pop_until departures ~time:duration ~f:release;
    f (Arnet_obs.Event.Run_end { time = duration; calls = n })
  | None -> ());
  stats

let replicate_fresh ?warmup ?mean_holding ?observe ?(domains = 1) ~seeds
    ~duration ~graph ~matrix ~policies () =
  if seeds = [] then invalid_arg "Engine.replicate: no seeds";
  if domains < 1 then invalid_arg "Engine.replicate: domains must be >= 1";
  let names = List.map (fun p -> p.name) (policies ()) in
  (* a shared observer sink must see whole Run_start..Run_end frames in
     seed-major sequence, so observed replications stay on one domain *)
  let domains = if Option.is_some observe then 1 else domains in
  let trace_for seed =
    let rng = Rng.substream (Rng.create ~seed) "trace" in
    Trace.generate ?mean_holding ~rng ~duration matrix
  in
  let fresh_policies () =
    let fresh = policies () in
    if List.map (fun p -> p.name) fresh <> names then
      invalid_arg "Engine.replicate_fresh: factory changed policy names";
    fresh
  in
  if domains = 1 then begin
    let results = List.map (fun name -> (name, ref [])) names in
    let one_seed seed =
      let trace = trace_for seed in
      List.iter2
        (fun policy (_, acc) ->
          let observer =
            match observe with
            | None -> None
            | Some choose -> choose ~seed ~policy:policy.name
          in
          acc := run ?warmup ?observer ~graph ~policy trace :: !acc)
        (fresh_policies ()) results
    in
    List.iter one_seed seeds;
    List.map (fun (name, acc) -> (name, List.rev !acc)) results
  end
  else begin
    (* shard at (seed x policy) granularity; every job rebuilds its own
       trace and policy from the seed, so no mutable state crosses
       domains and each run is bit-identical to its sequential twin *)
    let seed_arr = Array.of_list seeds in
    let name_arr = Array.of_list names in
    let np = Array.length name_arr in
    let jobs =
      List.concat_map
        (fun si -> List.init np (fun pi -> (si, pi)))
        (List.init (Array.length seed_arr) Fun.id)
    in
    let one (si, pi) =
      let trace = trace_for seed_arr.(si) in
      run ?warmup ~graph ~policy:(List.nth (fresh_policies ()) pi) trace
    in
    let stats =
      try Pool.map ~domains one jobs
      with Pool.Worker { index; exn } ->
        raise
          (Replication_failure
             { seed = seed_arr.(index / np);
               policy = name_arr.(index mod np);
               exn })
    in
    let flat = Array.of_list stats in
    List.mapi
      (fun pi name ->
        ( name,
          List.init (Array.length seed_arr) (fun si ->
              flat.((si * np) + pi)) ))
      names
  end

let replicate ?warmup ?mean_holding ?observe ?domains ~seeds ~duration ~graph
    ~matrix ~policies () =
  replicate_fresh ?warmup ?mean_holding ?observe ?domains ~seeds ~duration
    ~graph ~matrix
    ~policies:(fun () -> policies)
    ()
