open Arnet_topology
open Arnet_paths
open Arnet_sim

type policy = {
  name : string;
  decide :
    occupancy:int array -> alive:bool array -> call:Trace.call ->
    Engine.outcome;
  is_primary : call:Trace.call -> Path.t -> bool;
  primary_of : call:Trace.call -> Path.t option;
}

type stats = { core : Stats.t; dropped : int; failovers : int }

let path_alive alive (p : Path.t) =
  let ids = p.Path.link_ids in
  let rec ok i =
    i >= Array.length ids || (alive.(Array.unsafe_get ids i) && ok (i + 1))
  in
  ok 0

let run ?(warmup = 10.) ?(script = Script.empty) ~graph ~policy trace =
  let { Trace.times; ends; duration; matrix; _ } = trace in
  if warmup < 0. || warmup >= duration then
    invalid_arg "Failure_engine.run: warmup must be in [0, duration)";
  if Arnet_traffic.Matrix.nodes matrix <> Graph.node_count graph then
    invalid_arg "Failure_engine.run: trace/graph size mismatch";
  let m = Graph.link_count graph in
  if Script.max_link script >= m then
    invalid_arg "Failure_engine.run: script mentions a link outside the graph";
  let capacity = Array.make m 0 in
  Graph.iter_links (fun l -> capacity.(l.Link.id) <- l.Link.capacity) graph;
  let occupancy = Array.make m 0 in
  let alive = Array.make m true in
  (* departures carry the call index; the path is looked up in [active],
     which a FAIL may already have emptied (lazy deletion) *)
  let departures : int Event_queue.t = Event_queue.create () in
  let active : (int, Path.t) Hashtbl.t = Hashtbl.create 1024 in
  let stats = Stats.empty ~nodes:(Graph.node_count graph) in
  let dropped = ref 0 and failovers = ref 0 in
  let events = Script.to_array script in
  let n_events = Array.length events in
  let cursor = ref 0 in
  let release_path (p : Path.t) =
    let ids = p.Path.link_ids in
    for i = 0 to Array.length ids - 1 do
      let id = Array.unsafe_get ids i in
      occupancy.(id) <- occupancy.(id) - 1;
      assert (occupancy.(id) >= 0)
    done
  in
  let depart idx =
    match Hashtbl.find_opt active idx with
    | None -> () (* dropped by an earlier failure *)
    | Some p ->
      Hashtbl.remove active idx;
      release_path p
  in
  let apply_event (e : Script.event) =
    match e.Script.action with
    | Script.Repair -> alive.(e.Script.link) <- true
    | Script.Fail ->
      let k = e.Script.link in
      if alive.(k) then begin
        alive.(k) <- false;
        let victims =
          Hashtbl.fold
            (fun idx p acc ->
              if Path.mem_link p k then (idx, p) :: acc else acc)
            active []
          |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
        in
        List.iter
          (fun (idx, p) ->
            Hashtbl.remove active idx;
            release_path p;
            if e.Script.time >= warmup then incr dropped)
          victims
      end
  in
  (* departures and script events due at or before arrival [i]'s
     instant merge in time order; at equal instants the departure goes
     first (a call ending the instant its link dies is complete, not
     dropped) *)
  let rec advance i =
    let t = times.(i) in
    let dep =
      match Event_queue.peek_time departures with
      | Some u when u <= t -> u
      | _ -> Float.infinity
    in
    let scr =
      if !cursor < n_events && events.(!cursor).Script.time <= t then
        events.(!cursor).Script.time
      else Float.infinity
    in
    if dep = Float.infinity && scr = Float.infinity then ()
    else if dep <= scr then begin
      (match Event_queue.pop departures with
      | Some (_, idx) -> depart idx
      | None -> ());
      advance i
    end
    else begin
      apply_event events.(!cursor);
      incr cursor;
      advance i
    end
  in
  (* one cursor per run, moved to each arrival by [Trace.seek] *)
  let call = Trace.cursor trace in
  let handle i =
    Trace.seek call i;
    let src = call.Trace.src and dst = call.Trace.dst in
    advance i;
    let measured = times.(i) >= warmup in
    if measured then Stats.record_offered stats ~src ~dst;
    match policy.decide ~occupancy ~alive ~call with
    | Engine.Lost ->
      if measured then Stats.record_blocked stats ~src ~dst
    | Engine.Routed p ->
      if Path.src p <> src || Path.dst p <> dst then
        invalid_arg "Failure_engine.run: policy routed to wrong endpoints";
      let ids = p.Path.link_ids in
      for j = 0 to Array.length ids - 1 do
        let id = ids.(j) in
        if id < 0 || id >= m then
          invalid_arg "Failure_engine.run: policy routed over unknown link";
        if not alive.(id) then
          invalid_arg "Failure_engine.run: policy routed over a failed link";
        if occupancy.(id) >= capacity.(id) then
          invalid_arg "Failure_engine.run: policy routed over a full link"
      done;
      for j = 0 to Array.length ids - 1 do
        let id = ids.(j) in
        occupancy.(id) <- occupancy.(id) + 1
      done;
      Hashtbl.replace active i p;
      Event_queue.push_at departures ~times:ends i i;
      if measured then
        if policy.is_primary ~call p then Stats.record_primary stats
        else begin
          Stats.record_alternate stats ~hops:(Path.hops p);
          match policy.primary_of ~call with
          | Some prim when not (path_alive alive prim) -> incr failovers
          | _ -> ()
        end
  in
  for i = 0 to Trace.call_count trace - 1 do
    handle i
  done;
  { core = stats; dropped = !dropped; failovers = !failovers }

let replicate_fresh ?warmup ?mean_holding ?(domains = 1) ~seeds ~duration
    ~graph ~matrix ~script ~policies () =
  if seeds = [] then invalid_arg "Failure_engine.replicate: no seeds";
  if domains < 1 then
    invalid_arg "Failure_engine.replicate: domains must be >= 1";
  let names = List.map (fun p -> p.name) (policies ()) in
  (* same substream as Engine.replicate so the workloads line up with
     the plain engine's runs for the same seeds *)
  let trace_for seed =
    let rng = Rng.substream (Rng.create ~seed) "trace" in
    Trace.generate ?mean_holding ~rng ~duration matrix
  in
  let fresh_policies () =
    let fresh = policies () in
    if List.map (fun p -> p.name) fresh <> names then
      invalid_arg "Failure_engine.replicate_fresh: factory changed policy names";
    fresh
  in
  if domains = 1 then begin
    let results = List.map (fun name -> (name, ref [])) names in
    let one_seed seed =
      let trace = trace_for seed in
      let sc = script ~seed in
      List.iter2
        (fun policy (_, acc) ->
          acc := run ?warmup ~script:sc ~graph ~policy trace :: !acc)
        (fresh_policies ()) results
    in
    List.iter one_seed seeds;
    List.map (fun (name, acc) -> (name, List.rev !acc)) results
  end
  else begin
    (* (seed x policy) sharding, bit-identical to sequential: every job
       rebuilds its trace, script and policy from the seed inside the
       worker, so nothing mutable crosses domains *)
    let seed_arr = Array.of_list seeds in
    let name_arr = Array.of_list names in
    let np = Array.length name_arr in
    let jobs =
      List.concat_map
        (fun si -> List.init np (fun pi -> (si, pi)))
        (List.init (Array.length seed_arr) Fun.id)
    in
    let one (si, pi) =
      let seed = seed_arr.(si) in
      let trace = trace_for seed in
      let sc = script ~seed in
      run ?warmup ~script:sc ~graph
        ~policy:(List.nth (fresh_policies ()) pi)
        trace
    in
    let stats =
      try Pool.map ~domains one jobs
      with Pool.Worker { index; exn } ->
        raise
          (Engine.Replication_failure
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
