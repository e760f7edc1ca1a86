open Arnet_topology

type record = {
  time : float;
  src : int;
  dst : int;
  routed_hops : int option;
}

type keep = [ `Earliest | `Newest ]

type t = {
  capacities : int array;
  nodes : int;
  mutable samples : int;
  occupancy_sum : float array;
  peak : int array;
  counters : Arnet_obs.Counters.t;
  log_limit : int;
  keep : keep;
  log_q : record Queue.t;
}

let create ?(log_limit = 0) ?(keep = `Earliest) g =
  if log_limit < 0 then invalid_arg "Instrument.create: negative log limit";
  let m = Graph.link_count g in
  let capacities = Array.make m 0 in
  Graph.iter_links (fun l -> capacities.(l.Link.id) <- l.Link.capacity) g;
  { capacities;
    nodes = Graph.node_count g;
    samples = 0;
    occupancy_sum = Array.make m 0.;
    peak = Array.make m 0;
    (* warm-up 0: the recorder counts every decision it sees *)
    counters = Arnet_obs.Counters.create ~warmup:0. ();
    log_limit;
    keep;
    log_q = Queue.create () }

let log_record t r =
  if t.log_limit > 0 then
    match t.keep with
    | `Earliest ->
      if Queue.length t.log_q < t.log_limit then Queue.add r t.log_q
    | `Newest ->
      Queue.add r t.log_q;
      if Queue.length t.log_q > t.log_limit then ignore (Queue.pop t.log_q)

let observe t ~occupancy ~(call : Trace.call) ~primary outcome =
  t.samples <- t.samples + 1;
  Array.iteri
    (fun k occ ->
      t.occupancy_sum.(k) <- t.occupancy_sum.(k) +. float_of_int occ;
      if occ > t.peak.(k) then t.peak.(k) <- occ)
    occupancy;
  let time = Trace.time call
  and src = call.Trace.src
  and dst = call.Trace.dst in
  Arnet_obs.Counters.emit t.counters
    (Arnet_obs.Event.Arrival { time; src; dst; holding = Trace.holding call });
  let routed_hops =
    match outcome with
    | Engine.Lost ->
      Arnet_obs.Counters.emit t.counters
        (Arnet_obs.Event.Block { time; src; dst });
      None
    | Engine.Routed p ->
      let h = Arnet_paths.Path.hops p in
      Arnet_obs.Counters.emit t.counters
        (Arnet_obs.Event.Admit
           { time;
             src;
             dst;
             hops = h;
             primary;
             links = p.Arnet_paths.Path.link_ids });
      Some h
  in
  log_record t { time; src; dst; routed_hops }

let wrap t (policy : Engine.policy) =
  { policy with
    Engine.decide =
      (fun ~occupancy ~call ->
        let outcome = policy.Engine.decide ~occupancy ~call in
        let primary =
          match outcome with
          | Engine.Routed p -> policy.Engine.is_primary ~call p
          | Engine.Lost -> false
        in
        observe t ~occupancy ~call ~primary outcome;
        outcome) }

let samples t = t.samples

let mean_occupancy t =
  let n = float_of_int (Stdlib.max 1 t.samples) in
  Array.map (fun s -> s /. n) t.occupancy_sum

let mean_utilization t =
  let mean = mean_occupancy t in
  Array.mapi
    (fun k m ->
      if t.capacities.(k) = 0 then 0. else m /. float_of_int t.capacities.(k))
    mean

let peak_occupancy t = Array.copy t.peak

let hop_histogram t =
  let out = Array.make t.nodes 0 in
  (match Arnet_obs.Counters.runs t.counters with
  | [] -> ()
  | run :: _ ->
    Array.iteri
      (fun h c -> if h < t.nodes then out.(h) <- c)
      (Arnet_obs.Counters.hop_histogram run));
  out

let counters t = t.counters

let log t = List.of_seq (Queue.to_seq t.log_q)
