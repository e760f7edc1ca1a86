open Arnet_traffic
open Arnet_sim

type workload = { classes : Call_class.t array; demands : Matrix.t array }

let workload bindings =
  if bindings = [] then invalid_arg "Mr_trace.workload: no classes";
  let classes = Array.of_list (List.map fst bindings) in
  let demands = Array.of_list (List.map snd bindings) in
  let n = Matrix.nodes demands.(0) in
  Array.iter
    (fun m ->
      if Matrix.nodes m <> n then
        invalid_arg "Mr_trace.workload: matrix size mismatch")
    demands;
  { classes; demands }

let nodes w = Matrix.nodes w.demands.(0)

let offered_bandwidth w =
  let acc = ref 0. in
  Array.iteri
    (fun i (c : Call_class.t) ->
      acc := !acc +. (float_of_int c.Call_class.bandwidth *. Matrix.total w.demands.(i)))
    w.classes;
  !acc

type arrival = {
  time : float;
  src : int;
  dst : int;
  holding : float;
  class_index : int;
  u : float;
}

type t = {
  times : float array;
  srcs : int array;
  dsts : int array;
  holdings : float array;
  class_indices : int array;
  us : float array;
  ends : float array;
}

type call = {
  mutable src : int;
  mutable dst : int;
  mutable class_index : int;
  mutable index : int;
  trace : t;
}

let seek (c : call) i =
  c.index <- i;
  c.src <- c.trace.srcs.(i);
  c.dst <- c.trace.dsts.(i);
  c.class_index <- c.trace.class_indices.(i)

let cursor trace =
  let c = { src = 0; dst = 0; class_index = 0; index = 0; trace } in
  if Array.length trace.times > 0 then seek c 0;
  c

let call_count t = Array.length t.times

let of_calls (calls : arrival array) =
  let prev = ref neg_infinity in
  Array.iter
    (fun (c : arrival) ->
      if c.time < !prev then
        invalid_arg "Mr_trace.of_calls: calls not sorted by time";
      prev := c.time)
    calls;
  let column f = Array.map f calls in
  let times = column (fun c -> c.time)
  and holdings = column (fun c -> c.holding) in
  let ends = Array.create_float (Array.length calls) in
  Array.iteri (fun i time -> ends.(i) <- time +. holdings.(i)) times;
  { times;
    srcs = column (fun c -> c.src);
    dsts = column (fun c -> c.dst);
    holdings;
    class_indices = column (fun c -> c.class_index);
    us = column (fun c -> c.u);
    ends }

let generate ~rng ~duration w =
  if duration <= 0. then invalid_arg "Mr_trace.generate: bad duration";
  (* flatten (class, pair) streams into one inverse-cdf table *)
  let entries = ref [] in
  Array.iteri
    (fun ci m ->
      Matrix.iter_demands m (fun src dst d -> entries := (ci, src, dst, d) :: !entries))
    w.demands;
  let entries = Array.of_list (List.rev !entries) in
  let ne = Array.length entries in
  if ne = 0 then invalid_arg "Mr_trace.generate: no demand";
  let cumulative = Array.make ne 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i (_, _, _, d) ->
      acc := !acc +. d;
      cumulative.(i) <- !acc)
    entries;
  let total = !acc in
  let pick x =
    let lo = ref 0 and hi = ref (ne - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cumulative.(mid) > x then hi := mid else lo := mid + 1
    done;
    entries.(!lo)
  in
  let out = ref [] in
  let t = ref (Rng.exponential rng ~rate:total) in
  while !t < duration do
    let ci, src, dst, _ = pick (Rng.float rng total) in
    let mean = w.classes.(ci).Call_class.mean_holding in
    let holding = Rng.exponential rng ~rate:(1. /. mean) in
    let u = Rng.uniform rng in
    out := { time = !t; src; dst; holding; class_index = ci; u } :: !out;
    t := !t +. Rng.exponential rng ~rate:total
  done;
  of_calls (Array.of_list (List.rev !out))
