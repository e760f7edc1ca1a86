(* The daemon side of the benchmark: a command stream rendered ahead of
   time against an in-process replay, the daemon run on its own domain,
   the clients on the calling domain (closed-loop line requests, binary
   batch frames, and a paced open loop), and a 1-byte echo that
   measures the transport floor. *)

open Arnet_service
module Trace = Arnet_sim.Trace

(* ------------------------------------------------------------------ *)
(* the stream *)

type controls = {
  every : float;  (** seconds between cheap writes: RELOAD, FAIL k, REPAIR k *)
  fail_links : int array;  (** FAIL/REPAIR targets, cycled *)
  link_at : float list;
      (** base-phase instants of the LINK writes, alternating DEL and
          ADD over [link_pairs] so the topology is restored *)
  link_pairs : (int * int * int) array;  (** (src, dst, capacity) *)
  quiet : float;  (** decision-free window after each LINK write *)
}

type plan = {
  base_rate : float;  (** decisions per second in the base phase *)
  base_s : float;
  warmup_s : float;  (** base-phase start excluded from latency samples *)
  rung_rates : float array;  (** the fixed ladder of offered rates *)
  rung_s : float;
  controls : controls option;
}

type stream = {
  commands : Wire.command array;
  lines : string array;  (** [commands], printed and newline-terminated *)
  responses : Wire.response array;  (** the in-process replay's replies *)
  expected : string array;  (** [responses], printed *)
  codes : int array;
      (** replies condensed: an admitted call's id, or a negative code
          per reply kind (see {!code}) *)
  due : float array;  (** seconds after the stream starts *)
  segment : int array;  (** 0 for the base phase, k + 1 for rung k *)
  decision : bool array;  (** SETUP or TEARDOWN, as opposed to a write *)
  setups : int;
}

let code = function
  | Wire.Admitted { id; _ } -> id
  | Wire.Blocked -> -1
  | Wire.Done -> -2
  | Wire.Reloaded _ | Wire.Patched _ | Wire.Stats_reply _ -> -3
  | Wire.Err _ -> -4

let is_link = function Wire.Link_add _ | Wire.Link_del _ -> true | _ -> false

(* Walk the trace in engine event order (departures first on ties, a
   departure only for an admitted call) and pace it: decisions are due
   1/rate apart, writes at their wall-clock cadence.  Every command is
   applied to [state] as it is emitted, so the teardown ids, and every
   reply the daemon must give, are known before the daemon starts. *)
let build ~state ~(trace : Trace.t) plan =
  let n = Trace.call_count trace in
  let departures = Array.init n Fun.id in
  Array.stable_sort
    (fun a b -> Float.compare trace.Trace.ends.(a) trace.Trace.ends.(b))
    departures;
  let ids = Array.make n (-1) in
  let out = ref [] in
  let emit cmd due segment decision =
    let r = Session.handle state cmd in
    out :=
      ( cmd,
        Wire.print_command cmd ^ "\n",
        r,
        code r,
        due,
        segment,
        decision )
      :: !out;
    r
  in
  let rungs = Array.length plan.rung_rates in
  let stop = plan.base_s +. (float_of_int rungs *. plan.rung_s) in
  let segment_at t =
    if t < plan.base_s then 0
    else 1 + int_of_float ((t -. plan.base_s) /. plan.rung_s)
  in
  let rate_of seg =
    if seg = 0 then plan.base_rate else plan.rung_rates.(seg - 1)
  in
  let t = ref 0. in
  let arrival = ref 0 and departure = ref 0 in
  let next_cheap = ref (match plan.controls with Some c -> c.every | None -> infinity) in
  let cheap_turn = ref 0 in
  let links = ref (match plan.controls with Some c -> c.link_at | None -> []) in
  let link_turn = ref 0 in
  while !t < stop && (!arrival < n || !departure < n) do
    let seg = segment_at !t in
    (match plan.controls with
    | None -> ()
    | Some c ->
      while !next_cheap <= !t do
        let k = !cheap_turn in
        let link = c.fail_links.((k / 3) mod Array.length c.fail_links) in
        let cmd =
          match k mod 3 with
          | 0 -> Wire.Reload
          | 1 -> Wire.Fail { link }
          | _ -> Wire.Repair { link }
        in
        ignore (emit cmd !next_cheap (segment_at !next_cheap) false);
        incr cheap_turn;
        next_cheap := !next_cheap +. c.every
      done;
      (match !links with
      | at :: rest when at <= !t ->
        let k = !link_turn in
        let src, dst, capacity = c.link_pairs.(k / 2 mod Array.length c.link_pairs) in
        let cmd =
          if k mod 2 = 0 then Wire.Link_del { src; dst }
          else Wire.Link_add { src; dst; capacity }
        in
        ignore (emit cmd at 0 false);
        incr link_turn;
        links := rest;
        t := Float.max !t (at +. c.quiet)
      | _ -> ()));
    let take_departure =
      !departure < n
      && (!arrival >= n
         || departures.(!departure) < !arrival
            && trace.Trace.ends.(departures.(!departure))
               <= trace.Trace.times.(!arrival))
    in
    if take_departure then begin
      let call = departures.(!departure) in
      incr departure;
      if ids.(call) >= 0 then begin
        ignore (emit (Wire.Teardown { id = ids.(call) }) !t seg true);
        t := !t +. (1. /. rate_of seg)
      end
    end
    else if !arrival < n then begin
      let call = !arrival in
      incr arrival;
      let cmd =
        Wire.Setup
          { src = trace.Trace.srcs.(call);
            dst = trace.Trace.dsts.(call);
            time = Some trace.Trace.times.(call) }
      in
      (match emit cmd !t seg true with
      | Wire.Admitted { id; _ } -> ids.(call) <- id
      | _ -> ());
      t := !t +. (1. /. rate_of seg)
    end
    else departure := n
  done;
  let a = Array.of_list (List.rev !out) in
  let pick f = Array.map f a in
  { commands = pick (fun (c, _, _, _, _, _, _) -> c);
    lines = pick (fun (_, l, _, _, _, _, _) -> l);
    responses = pick (fun (_, _, r, _, _, _, _) -> r);
    expected = pick (fun (_, _, r, _, _, _, _) -> Wire.print_response r);
    codes = pick (fun (_, _, _, k, _, _, _) -> k);
    due = pick (fun (_, _, _, _, d, _, _) -> d);
    segment = pick (fun (_, _, _, _, _, s, _) -> s);
    decision = pick (fun (_, _, _, _, _, _, d) -> d);
    setups =
      Array.fold_left
        (fun acc (c, _, _, _, _, _, _) ->
          match c with Wire.Setup _ -> acc + 1 | _ -> acc)
        0 a }

(* ------------------------------------------------------------------ *)
(* in-process replay *)

type replay = {
  decisions : Meter.slice list;
      (** one per pass: SETUPs done, over the pass's time minus its
          LINK writes *)
  mismatches : int;  (** replies that differ from the rendering replay *)
  commands_checked : int;
}

(* Replay the whole stream through [Session.handle], pass after pass,
   each on a fresh state from [make_state] (built untimed).  A pass is
   one slice, its LINK writes timed and taken out of it.  Replies are
   condensed to {!code}s inside the slice and compared afterwards. *)
let replay ~make_state ~stream ~budget ~min =
  let n = Array.length stream.commands in
  let state = ref None in
  let got = Array.make n 0 in
  let link_s = ref [] in
  let mismatches = ref 0 and checked = ref 0 in
  let passes =
    Meter.slices
      ~prepare:(fun _ ->
        state := None;
        Gc.compact ();
        state := Some (make_state ()))
      ~budget ~min
      (fun _ ->
        let st = Option.get !state in
        let setups = ref 0 and in_links = ref 0. in
        for i = 0 to n - 1 do
          let cmd = stream.commands.(i) in
          if is_link cmd then begin
            let t0 = Meter.now () in
            got.(i) <- code (Session.handle st cmd);
            in_links := !in_links +. (Meter.now () -. t0)
          end
          else begin
            got.(i) <- code (Session.handle st cmd);
            match cmd with Wire.Setup _ -> incr setups | _ -> ()
          end
        done;
        link_s := !in_links :: !link_s;
        for i = 0 to n - 1 do
          if got.(i) <> stream.codes.(i) then incr mismatches
        done;
        checked := !checked + n;
        !setups)
  in
  { decisions =
      List.map2
        (fun s l -> { s with Meter.wall = s.Meter.wall -. l })
        passes (List.rev !link_s);
    mismatches = !mismatches;
    commands_checked = !checked }

(* ------------------------------------------------------------------ *)
(* sockets *)

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.setsockopt s Unix.SO_REUSEADDR true;
      Unix.bind s (loopback 0);
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> invalid_arg "Serve.free_port")

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let deadline = Meter.now () +. 10. in
  let rec attempt () =
    match Unix.connect fd (loopback port) with
    | () -> ()
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _)
      when Meter.now () < deadline ->
      ignore (Unix.select [] [] [] 0.01);
      attempt ()
  in
  attempt ();
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let write_string fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Reply lines as they arrive: bytes read from the daemon are split into
   lines kept in place, and each is compared with the reply the
   in-process replay gave, without copying it. *)
type replies = { buf : Bytes.t; line : Bytes.t; mutable len : int }

let replies () =
  { buf = Bytes.create 65536; line = Bytes.create Server.max_line_bytes; len = 0 }

(* the first [len] bytes of [b] are [want], compared in place *)
let same_bytes b len want =
  len = String.length want
  &&
  let k = ref 0 in
  while !k < len && Bytes.unsafe_get b !k = String.unsafe_get want !k do
    incr k
  done;
  !k = len

let same_line r want = same_bytes r.line r.len want

let difference stream i r =
  Printf.sprintf "command %S: got %S, expected %S"
    (String.trim stream.lines.(i)) (Bytes.sub_string r.line 0 r.len)
    stream.expected.(i)

(* Read what the socket holds, calling [on_line t] per complete line
   with [t] the instant the read returned; false once the daemon has
   hung up. *)
let read_replies r fd on_line =
  match Unix.read fd r.buf 0 (Bytes.length r.buf) with
  | 0 -> false
  | len ->
    let t = Meter.now () in
    for k = 0 to len - 1 do
      let c = Bytes.unsafe_get r.buf k in
      if c = '\n' then begin
        on_line t;
        r.len <- 0
      end
      else if r.len < Bytes.length r.line then begin
        Bytes.unsafe_set r.line r.len c;
        r.len <- r.len + 1
      end
    done;
    true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true

(* ------------------------------------------------------------------ *)
(* the open-loop client *)

type drive = {
  recv : float array;  (** reply instant minus due instant, nan if none *)
  late : float array;  (** send instant minus due instant, nan if unsent *)
  sent : int;  (** commands sent: a prefix of the stream *)
  answered : int;
  wrong : int;  (** replies that differ from the in-process replay *)
  in_flight_max : int;
  first_wrong : string option;
  passed : int;  (** ladder rungs passed before the first failure *)
  rung_rate : float array;  (** achieved decisions/s per rung, nan if unrun *)
}

(* A rung passes when the p99 of its decision latencies, timed from due
   instants, stays within [slo_s], and the requests still in flight at
   its last send fit within [slo_s] of its offered rate (the backlog is
   not growing). *)
let slo_s = 0.002

(* Send the stream over [fd] at its due instants, from one thread,
   without waiting for replies; stop at the first failing rung. *)
let drive ~fd ~stream ~plan ~timeout =
  let n = Array.length stream.lines in
  let rungs = Array.length plan.rung_rates in
  let rung_last = Array.make (rungs + 1) (-1) in
  let rung_first = Array.make (rungs + 1) max_int in
  let decisions_in = Array.make (rungs + 1) 0 in
  Array.iteri
    (fun i seg ->
      if stream.decision.(i) then begin
        rung_last.(seg) <- max rung_last.(seg) i;
        rung_first.(seg) <- min rung_first.(seg) i;
        decisions_in.(seg) <- decisions_in.(seg) + 1
      end)
    stream.segment;
  let recv = Array.make n nan and late = Array.make n nan in
  let limit = ref n in
  let next = ref 0 and got = ref 0 in
  let wrong = ref 0 and first_wrong = ref None in
  let in_flight_max = ref 0 in
  let backlog_at_last = Array.make (rungs + 1) 0 in
  let passed = ref 0 and failed_rung = ref false in
  let rung_rate = Array.make rungs nan in
  let out = ref (Bytes.create 65536) in
  let out_lo = ref 0 and out_hi = ref 0 in
  let r = replies () in
  Unix.set_nonblock fd;
  let t0 = Meter.now () +. 0.02 in
  let hard_deadline = t0 +. timeout in
  let append s =
    let len = String.length s in
    if !out_hi + len > Bytes.length !out then begin
      let live = !out_hi - !out_lo in
      let cap = max (Bytes.length !out) (2 * (live + len)) in
      let b = Bytes.create cap in
      Bytes.blit !out !out_lo b 0 live;
      out := b;
      out_lo := 0;
      out_hi := live
    end;
    Bytes.blit_string s 0 !out !out_hi len;
    out_hi := !out_hi + len
  in
  (* decided once every reply of rung [seg] is in, from counters kept
     as replies arrive: sorting here would stall the client itself *)
  let over_slo = Array.make (rungs + 1) 0 in
  let evaluate seg =
    let first = rung_first.(seg) and last = rung_last.(seg) in
    let count = float_of_int (decisions_in.(seg)) in
    let rate = plan.rung_rates.(seg - 1) in
    let span = stream.due.(last) +. recv.(last) -. stream.due.(first) in
    rung_rate.(seg - 1) <- count /. span;
    let backlog_ok = float_of_int backlog_at_last.(seg) <= Float.max 16. (rate *. slo_s) in
    let p99_ok = float_of_int over_slo.(seg) <= 0.01 *. count in
    if p99_ok && backlog_ok && not !failed_rung then passed := seg
    else if not !failed_rung then begin
      failed_rung := true;
      (* stop offering load: what is sent is answered, nothing more *)
      limit := !next
    end
  in
  let on_reply t =
    let i = !got in
    if not (same_line r stream.expected.(i)) then begin
      incr wrong;
      if !first_wrong = None then first_wrong := Some (difference stream i r)
    end;
    recv.(i) <- t -. t0 -. stream.due.(i);
    got := i + 1;
    let seg = stream.segment.(i) in
    if seg > 0 then begin
      if stream.decision.(i) && recv.(i) > slo_s then over_slo.(seg) <- over_slo.(seg) + 1;
      if i = rung_last.(seg) then evaluate seg
    end
  in
  let pending_out () = !out_hi > !out_lo in
  let readers = [ fd ] in
  let closed = ref false in
  while
    (not !closed) && (!got < !limit || !got < !next)
    && Meter.now () < hard_deadline
  do
    let t = Meter.now () in
    while !next < !limit && t0 +. stream.due.(!next) <= t do
      let i = !next in
      append stream.lines.(i);
      late.(i) <- t -. t0;
      next := i + 1;
      let seg = stream.segment.(i) in
      if seg > 0 && i = rung_last.(seg) then backlog_at_last.(seg) <- !next - !got
    done;
    if !next - !got > !in_flight_max then in_flight_max := !next - !got;
    if pending_out () then begin
      match Unix.single_write fd !out !out_lo (!out_hi - !out_lo) with
      | w ->
        out_lo := !out_lo + w;
        if !out_lo = !out_hi then begin
          out_lo := 0;
          out_hi := 0
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    end;
    (* sleep until the next due instant or a reply *)
    let timeout =
      if !next < !limit then Float.max 0. (t0 +. stream.due.(!next) -. Meter.now ())
      else 0.05
    in
    let readable =
      match Unix.select readers (if pending_out () then readers else []) [] timeout with
      | r, _, _ -> r <> []
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    (* a hang-up leaves the rest unanswered *)
    if readable then
      closed := not (read_replies r fd (fun t -> if !got < !next then on_reply t))
  done;
  Unix.clear_nonblock fd;
  (* send instants become lateness *)
  Array.iteri (fun i due -> late.(i) <- late.(i) -. due) stream.due;
  { recv;
    late;
    sent = !next;
    answered = !got;
    wrong = !wrong;
    in_flight_max = !in_flight_max;
    first_wrong = !first_wrong;
    passed = !passed;
    rung_rate }

(* ------------------------------------------------------------------ *)
(* the closed-loop client *)

type pass = {
  latency : float array;  (** per SETUP/TEARDOWN: reply instant minus send instant *)
  answered_all : int;
  mismatched : int;
  mismatch : string option;
}

(* Send the whole stream one request at a time, as [arn load] does in
   line mode, checking every reply against the in-process replay.  Each
   decision is one round trip, so a host stall delays one sample, not
   the queue behind it.  After every [every] replies the pass runs
   [pause ()]. *)
let pass ~every ~pause ~fd ~stream =
  let n = Array.length stream.lines in
  let latency = ref [] in
  let r = replies () in
  let got = ref 0 in
  let mismatched = ref 0 and mismatch = ref None in
  let closed = ref false in
  while (not !closed) && !got < n do
    let i = !got in
    if i > 0 && i mod every = 0 then pause ();
    let sent = Meter.now () in
    write_string fd stream.lines.(i);
    let reply t =
      if !got = i then begin
        if not (same_line r stream.expected.(i)) then begin
          incr mismatched;
          if !mismatch = None then mismatch := Some (difference stream i r)
        end;
        if stream.decision.(i) then latency := (t -. sent) :: !latency;
        got := i + 1
      end
    in
    while (not !closed) && !got = i do
      closed := not (read_replies r fd reply)
    done
  done;
  { latency = Array.of_list (List.rev !latency);
    answered_all = !got;
    mismatched = !mismatched;
    mismatch = !mismatch }

(* ------------------------------------------------------------------ *)
(* the binary batch client *)

(* The stream cut into Bwire frames the way [arn load --binary --batch
   N] sends them: at most [batch] commands a frame, and never a
   TEARDOWN in the frame of its own SETUP, since a client learns the id
   from the SETUP's verdict.  The writes ride in the frames as escaped
   lines.  Each frame's reply frame is encoded ahead of time from the
   in-process replay, so a reply is checked byte for byte. *)
type frames = {
  sends : string array;
  answers : string array;  (** the reply frame each send must get *)
  first : int array;  (** the stream index of each frame's first command *)
}

(* the stream index just past frame [k] *)
let frame_end first n k = if k + 1 < Array.length first then first.(k + 1) else n

let frames ~batch stream =
  let n = Array.length stream.commands in
  let setup_at = Hashtbl.create 4096 in
  let starts = ref [ 0 ] in
  for i = 0 to n - 1 do
    let start = List.hd !starts in
    let own_setup_inside =
      match stream.commands.(i) with
      | Wire.Teardown { id } -> (
        match Hashtbl.find_opt setup_at id with Some j -> j >= start | None -> false)
      | _ -> false
    in
    if i > start && (i - start >= batch || own_setup_inside) then starts := i :: !starts;
    match stream.commands.(i) with
    | Wire.Setup _ when stream.codes.(i) >= 0 -> Hashtbl.replace setup_at stream.codes.(i) i
    | _ -> ()
  done;
  let first = Array.of_list (List.rev !starts) in
  let encode f a =
    Array.mapi
      (fun k lo -> f (Array.to_list (Array.sub a lo (frame_end first n k - lo))))
      first
  in
  { sends = encode Bwire.encode_commands stream.commands;
    answers = encode Bwire.encode_replies stream.responses;
    first }

let rec read_exact fd b off len =
  if len > 0 then
    match Unix.read fd b off len with
    | 0 -> raise End_of_file
    | r -> read_exact fd b (off + r) (len - r)

(* one frame into [!buf], grown as needed; its length in bytes *)
let read_frame fd buf =
  read_exact fd !buf 0 4;
  let len = 4 + (Int32.to_int (Bytes.get_int32_be !buf 0) land 0xFFFFFFFF) in
  if len > 4 + Bwire.max_frame_payload then failwith "Serve.read_frame: oversized frame";
  if len > Bytes.length !buf then begin
    let b = Bytes.create len in
    Bytes.blit !buf 0 b 0 4;
    buf := b
  end;
  read_exact fd !buf 4 (len - 4);
  len

(* HELLO binary on the line protocol; frames follow its OK *)
let hello_binary fd =
  write_string fd (Wire.print_command (Wire.Hello { mode = "binary" }) ^ "\n");
  let want = Wire.print_response Wire.Done ^ "\n" in
  let b = Bytes.create (String.length want) in
  read_exact fd b 0 (Bytes.length b);
  if not (same_bytes b (Bytes.length b) want) then
    failwith ("Serve.hello_binary: " ^ Bytes.to_string b)

type batched = {
  wall : float;  (** from the first frame sent to the last reply read *)
  answered : int;  (** commands whose reply frame arrived *)
  wrong : int;  (** replies that differ from the in-process replay *)
  first_wrong : string option;
}

(* the replies of frame [k], whose bytes differ from the expected
   frame, that differ from the in-process replay, and the first
   difference; at least one, since the frame differs *)
let frame_differences stream frames k got =
  let lo = frames.first.(k)
  and hi = frame_end frames.first (Array.length stream.commands) k in
  match Bwire.decode got with
  | Ok (Bwire.Replies rs, _) when List.length rs = hi - lo ->
    let bad = ref 0 and first = ref None in
    List.iteri
      (fun j r ->
        let have = Wire.print_response r in
        if have <> stream.expected.(lo + j) then begin
          incr bad;
          if !first = None then
            first :=
              Some
                (Printf.sprintf "command %S: got %S, expected %S"
                   (String.trim stream.lines.(lo + j)) have stream.expected.(lo + j))
        end)
      rs;
    if !bad = 0 then (1, Some (Printf.sprintf "frame %d: the reply bytes differ" k))
    else (!bad, !first)
  | Ok _ -> (hi - lo, Some (Printf.sprintf "frame %d: wrong reply count" k))
  | Error e -> (hi - lo, Some (Printf.sprintf "frame %d: %s" k (Bwire.error_to_string e)))

(* Send the frames one at a time, each after the previous one's reply
   frame, on a connection upgraded with HELLO binary. *)
let batch_pass ~fd ~stream ~frames =
  hello_binary fd;
  let buf = ref (Bytes.create 65536) in
  let answered = ref 0 and wrong = ref 0 and first_wrong = ref None in
  let t0 = Meter.now () in
  (try
     Array.iteri
       (fun k send ->
         write_string fd send;
         let len = read_frame fd buf in
         answered := frame_end frames.first (Array.length stream.commands) k;
         if not (same_bytes !buf len frames.answers.(k)) then begin
           let bad, first = frame_differences stream frames k (Bytes.sub_string !buf 0 len) in
           wrong := !wrong + bad;
           if !first_wrong = None then first_wrong := first
         end)
       frames.sends
   with End_of_file | Unix.Unix_error _ -> ());
  { wall = Meter.now () -. t0;
    answered = !answered;
    wrong = !wrong;
    first_wrong = !first_wrong }

(* ------------------------------------------------------------------ *)
(* the daemon *)

type daemon = { port : int; domain : (unit, exn) result Domain.t }

let start_daemon state =
  let port = free_port () in
  let ready = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        try
          Server.serve ~domains:1
            ~on_listen:(fun _ -> Atomic.set ready true)
            ~state
            (Server.Tcp ("127.0.0.1", port));
          Ok ()
        with e ->
          Atomic.set ready true;
          Error e)
  in
  let deadline = Meter.now () +. 10. in
  while (not (Atomic.get ready)) && Meter.now () < deadline do
    ignore (Unix.select [] [] [] 0.005)
  done;
  { port; domain }

(* [l] in consecutive pieces of at most [k] *)
let rec pieces k l =
  match List.filteri (fun i _ -> i < k) l with
  | [] -> []
  | piece -> piece :: pieces k (List.filteri (fun i _ -> i >= k) l)

(* Drain the daemon: DRAIN, then a TEARDOWN for every call the sent
   prefix left active (a call a write already dropped answers ERR,
   harmlessly), in the connection's framing, and wait for the serve
   loop to end. *)
let stop_daemon d ~fd ~stream ~sent ~binary =
  let active = Hashtbl.create 1024 in
  for i = 0 to sent - 1 do
    match stream.commands.(i) with
    | Wire.Setup _ when stream.codes.(i) >= 0 -> Hashtbl.replace active stream.codes.(i) ()
    | Wire.Teardown { id } -> Hashtbl.remove active id
    | _ -> ()
  done;
  let cmds =
    Wire.Drain :: Hashtbl.fold (fun id () acc -> Wire.Teardown { id } :: acc) active []
  in
  (* the replies are short and loopback buffers deep: write everything,
     then read the answers back *)
  (try
     if binary then begin
       let batches = pieces Bwire.max_batch cmds in
       List.iter (fun b -> write_string fd (Bwire.encode_commands b)) batches;
       let buf = ref (Bytes.create 65536) in
       List.iter (fun _ -> ignore (read_frame fd buf)) batches
     end
     else begin
       write_string fd
         (String.concat "" (List.map (fun c -> Wire.print_command c ^ "\n") cmds));
       let ic = Unix.in_channel_of_descr fd in
       List.iter (fun _ -> ignore (input_line ic)) cmds
     end
   with Unix.Unix_error _ | End_of_file | Sys_error _ | Failure _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Domain.join d.domain

(* ------------------------------------------------------------------ *)
(* the transport floor *)

(* Median round trip, in seconds, of a 1-byte echo over loopback TCP —
   the socket type the daemon serves — sent back to back like the
   line passes: the benchmark's own echo, no daemon code involved. *)
let echo_rtt ~count =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (loopback 0);
  Unix.listen listener 1;
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> invalid_arg "Serve.echo_rtt"
  in
  let server =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept listener in
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        let b = Bytes.create 1 in
        let rec loop () =
          if Unix.read fd b 0 1 = 1 then begin
            ignore (Unix.write fd b 0 1);
            loop ()
          end
        in
        (try loop () with Unix.Unix_error _ -> ());
        Unix.close fd)
  in
  let fd = connect port in
  let b = Bytes.make 1 'x' in
  let rtt = Array.make count nan in
  for i = 0 to count - 1 do
    let t = Meter.now () in
    ignore (Unix.write fd b 0 1);
    ignore (Unix.read fd b 0 1);
    rtt.(i) <- Meter.now () -. t
  done;
  Unix.close fd;
  Domain.join server;
  Unix.close listener;
  Meter.median rtt
