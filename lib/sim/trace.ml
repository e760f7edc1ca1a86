open Arnet_traffic

type arrival = {
  time : float;
  src : int;
  dst : int;
  holding : float;
  u : float;
}

type t = {
  times : float array;
  srcs : int array;
  dsts : int array;
  holdings : float array;
  us : float array;
  ends : float array;
  duration : float;
  matrix : Matrix.t;
}

type call = {
  mutable src : int;
  mutable dst : int;
  mutable index : int;
  trace : t;
}

let seek (c : call) i =
  c.index <- i;
  c.src <- c.trace.srcs.(i);
  c.dst <- c.trace.dsts.(i)

let cursor trace =
  let c = { src = 0; dst = 0; index = 0; trace } in
  if Array.length trace.times > 0 then seek c 0;
  c

let time (c : call) = c.trace.times.(c.index)
let holding (c : call) = c.trace.holdings.(c.index)
let u (c : call) = c.trace.us.(c.index)

(* every constructor funnels through [columns]: the departure deadline
   [time + holding] is computed straight into its float array (never
   boxed) *)
let columns ~duration ~matrix ~times ~srcs ~dsts ~holdings ~us =
  let n = Array.length times in
  let ends = Array.create_float n in
  for i = 0 to n - 1 do
    ends.(i) <- times.(i) +. holdings.(i)
  done;
  { times; srcs; dsts; holdings; us; ends; duration; matrix }

let generate ?(mean_holding = 1.) ~rng ~duration matrix =
  if duration <= 0. then invalid_arg "Trace.generate: duration <= 0";
  if mean_holding <= 0. then invalid_arg "Trace.generate: mean_holding <= 0";
  let total = Matrix.total matrix in
  if total <= 0. then invalid_arg "Trace.generate: empty traffic matrix";
  (* cumulative demand over positive pairs, for inverse-cdf pair choice *)
  let pairs = ref [] in
  Matrix.iter_demands matrix (fun i j d -> pairs := (i, j, d) :: !pairs);
  let pairs = Array.of_list (List.rev !pairs) in
  let np = Array.length pairs in
  let cumulative = Array.make np 0. in
  let acc = ref 0. in
  Array.iteri
    (fun idx (_, _, d) ->
      acc := !acc +. d;
      cumulative.(idx) <- !acc)
    pairs;
  let pick_pair x =
    (* smallest idx with cumulative.(idx) > x *)
    let lo = ref 0 and hi = ref (np - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cumulative.(mid) > x then hi := mid else lo := mid + 1
    done;
    pairs.(!lo)
  in
  let holding_rate = 1. /. mean_holding in
  (* generate straight into the SoA columns (amortised doubling).  The
     current time lives in a one-element float array so the accumulator
     stays unboxed. *)
  let cap = ref 1024 in
  let times = ref (Array.make !cap 0.) in
  let holdings = ref (Array.make !cap 0.) in
  let us = ref (Array.make !cap 0.) in
  let srcs = ref (Array.make !cap 0) in
  let dsts = ref (Array.make !cap 0) in
  let n = ref 0 in
  let grow () =
    let cap' = 2 * !cap in
    let extend mk a = let b = mk cap' in Array.blit a 0 b 0 !cap; b in
    times := extend (fun c -> Array.make c 0.) !times;
    holdings := extend (fun c -> Array.make c 0.) !holdings;
    us := extend (fun c -> Array.make c 0.) !us;
    srcs := extend (fun c -> Array.make c 0) !srcs;
    dsts := extend (fun c -> Array.make c 0) !dsts;
    cap := cap'
  in
  let t = Array.make 1 (Rng.exponential rng ~rate:total) in
  while t.(0) < duration do
    let src, dst, _ = pick_pair (Rng.float rng !acc) in
    let holding = Rng.exponential rng ~rate:holding_rate in
    let u = Rng.uniform rng in
    if !n = !cap then grow ();
    let i = !n in
    !times.(i) <- t.(0);
    !holdings.(i) <- holding;
    !us.(i) <- u;
    !srcs.(i) <- src;
    !dsts.(i) <- dst;
    n := i + 1;
    t.(0) <- t.(0) +. Rng.exponential rng ~rate:total
  done;
  let n = !n in
  columns ~duration ~matrix
    ~times:(Array.sub !times 0 n)
    ~srcs:(Array.sub !srcs 0 n)
    ~dsts:(Array.sub !dsts 0 n)
    ~holdings:(Array.sub !holdings 0 n)
    ~us:(Array.sub !us 0 n)

let of_calls ~matrix ~duration (calls : arrival list) =
  if duration <= 0. then invalid_arg "Trace.of_calls: duration <= 0";
  let n = Matrix.nodes matrix in
  let check prev (c : arrival) =
    if c.time < prev then invalid_arg "Trace.of_calls: calls not sorted";
    if c.time < 0. || c.time >= duration then
      invalid_arg "Trace.of_calls: call outside [0, duration)";
    if c.holding <= 0. || not (Float.is_finite c.holding) then
      invalid_arg "Trace.of_calls: bad holding time";
    if c.u < 0. || c.u >= 1. then invalid_arg "Trace.of_calls: u outside [0,1)";
    if c.src < 0 || c.src >= n || c.dst < 0 || c.dst >= n || c.src = c.dst
    then invalid_arg "Trace.of_calls: bad endpoints";
    c.time
  in
  let (_ : float) = List.fold_left check 0. calls in
  let calls = Array.of_list calls in
  let column f = Array.map f calls in
  columns ~duration ~matrix
    ~times:(column (fun c -> c.time))
    ~srcs:(column (fun c -> c.src))
    ~dsts:(column (fun c -> c.dst))
    ~holdings:(column (fun c -> c.holding))
    ~us:(column (fun c -> c.u))

let shift t dt =
  if dt < 0. || not (Float.is_finite dt) then
    invalid_arg "Trace.shift: negative shift";
  columns ~duration:(t.duration +. dt) ~matrix:t.matrix
    ~times:(Array.map (fun x -> x +. dt) t.times)
    ~srcs:t.srcs ~dsts:t.dsts ~holdings:t.holdings ~us:t.us

let call_count t = Array.length t.times

(* a stable merge by arrival time (ties keep [a] first): mark each
   output slot's source, then gather every column by the marks *)
let merge a b =
  if Matrix.nodes a.matrix <> Matrix.nodes b.matrix then
    invalid_arg "Trace.merge: node count mismatch";
  let na = call_count a and nb = call_count b in
  let n = na + nb in
  let from_a = Array.make n false in
  let i = ref 0 and j = ref 0 in
  for k = 0 to n - 1 do
    if !j >= nb || (!i < na && a.times.(!i) <= b.times.(!j)) then begin
      from_a.(k) <- true;
      incr i
    end
    else incr j
  done;
  let pick col_a col_b =
    let i = ref 0 and j = ref 0 in
    Array.map
      (fun take_a ->
        if take_a then (incr i; col_a.(!i - 1)) else (incr j; col_b.(!j - 1)))
      from_a
  in
  columns
    ~duration:(Float.max a.duration b.duration)
    ~matrix:(Matrix.add a.matrix b.matrix)
    ~times:(pick a.times b.times) ~srcs:(pick a.srcs b.srcs)
    ~dsts:(pick a.dsts b.dsts) ~holdings:(pick a.holdings b.holdings)
    ~us:(pick a.us b.us)

let offered_between t lo hi =
  Array.fold_left
    (fun acc time -> if time >= lo && time < hi then acc + 1 else acc)
    0 t.times

let check_sorted t =
  let ok = ref true in
  for i = 1 to call_count t - 1 do
    if t.times.(i) < t.times.(i - 1) then ok := false
  done;
  !ok
