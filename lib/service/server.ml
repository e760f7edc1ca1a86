type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  let invalid = Printf.sprintf "invalid address %S (unix:PATH, tcp:HOST:PORT, HOST:PORT or PORT)" s in
  match String.index_opt s ':' with
  | None -> (
    match int_of_string_opt s with
    | Some port when port > 0 && port < 65536 -> Ok (Tcp ("127.0.0.1", port))
    | _ -> Error invalid)
  | Some i -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "unix" -> if rest = "" then Error invalid else Ok (Unix_sock rest)
    | "tcp" -> (
      match String.rindex_opt rest ':' with
      | None -> Error invalid
      | Some j -> (
        let host = String.sub rest 0 j in
        let port = String.sub rest (j + 1) (String.length rest - j - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
        | _ -> Error invalid))
    | host -> (
      match int_of_string_opt rest with
      | Some p when p > 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
      | _ -> Error invalid))

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
      raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host))
    | { Unix.h_addr_list; _ } -> h_addr_list.(0)
    | exception Not_found ->
      raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host)))

let sockaddr_of = function
  | Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (resolve_host host, port))

(* ------------------------------------------------------------------ *)
(* client side *)

let connect ?(retry_for = 0.) addr =
  let domain, sockaddr = sockaddr_of addr in
  let deadline = Unix.gettimeofday () +. retry_for in
  let rec attempt () =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | () -> fd
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      ignore (Unix.select [] [] [] 0.05);
      attempt ()
    | exception e ->
      Unix.close fd;
      raise e
  in
  let fd = attempt () in
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let request ic oc cmd =
  output_string oc (Wire.print_command cmd);
  output_char oc '\n';
  flush oc;
  let line = input_line ic in
  match Wire.parse_response line with
  | Ok r -> r
  | Error msg -> failwith (Printf.sprintf "bad response %S: %s" line msg)

(* ------------------------------------------------------------------ *)
(* server side *)

type proto =
  | Command  (** the SETUP/TEARDOWN line protocol *)
  | Binary  (** the Bwire batch framing, after a HELLO binary upgrade *)
  | Http  (** a telemetry connection: one GET, one response, close *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (** bytes read but not yet framed into a line *)
  mutable proto : proto;
}

(* the longest legal command line; generous next to real commands
   (SETUP is ~40 bytes) but a hard ceiling on what one connection can
   make the daemon buffer *)
let max_line_bytes = 8192

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let chomp_cr line =
  if line <> "" && line.[String.length line - 1] = '\r' then
    String.sub line 0 (String.length line - 1)
  else line

(* one complete line out of [buf] (CRLF-tolerant: telnet, nc -C); the
   tail stays buffered.  One line at a time rather than all at once so
   a HELLO binary upgrade leaves the bytes behind it — already binary
   frames — untouched for the frame decoder *)
let take_line buf =
  let data = Buffer.contents buf in
  match String.index_opt data '\n' with
  | None -> None
  | Some i ->
    Buffer.clear buf;
    Buffer.add_substring buf data (i + 1) (String.length data - i - 1);
    Some (chomp_cr (String.sub data 0 i))

(* bind-and-listen with the unix-path replace semantics; [cleanup]
   closes and unlinks, safe to call twice *)
let bind_listener addr =
  let domain, sockaddr = sockaddr_of addr in
  (match addr with
  | Unix_sock path when Sys.file_exists path -> Unix.unlink path
  | _ -> ());
  let listener = Unix.socket domain Unix.SOCK_STREAM 0 in
  let cleanup () =
    (try Unix.close listener with Unix.Unix_error _ -> ());
    match addr with
    | Unix_sock path -> (
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Tcp _ -> ()
  in
  (try
     (match addr with
     | Tcp _ -> Unix.setsockopt listener Unix.SO_REUSEADDR true
     | Unix_sock _ -> ());
     Unix.bind listener sockaddr;
     Unix.listen listener 64
   with e ->
     cleanup ();
     raise e);
  (listener, cleanup)

(* Accept one command connection.  Replies are small writes the client
   waits on, and Nagle's algorithm would hold each one back until the
   previous segment is acknowledged (a delayed ACK away), so TCP peers
   get TCP_NODELAY.  Unix-domain peers have no Nagle to turn off.  The
   option is best effort: a peer that already hung up is found by the
   first read. *)
let accept_command listener =
  let fd, peer = Unix.accept listener in
  (match peer with
  | Unix.ADDR_INET _ -> (
    try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
  | Unix.ADDR_UNIX _ -> ());
  fd

(* a complete HTTP request head: headers (if any) ended by a blank line *)
let head_complete data =
  let n = String.length data in
  let rec scan i =
    if i + 1 >= n then false
    else if data.[i] = '\n' && data.[i + 1] = '\n' then true
    else if
      i + 3 < n
      && data.[i] = '\r' && data.[i + 1] = '\n'
      && data.[i + 2] = '\r' && data.[i + 3] = '\n'
    then true
    else scan (i + 1)
  in
  scan 0

(* ------------------------------------------------------------------ *)
(* protocol machinery, shared by the single-domain loop and the
   sharded per-worker loops.  Each maker closes over one loop's
   connection table and serialization discipline. *)

(* commands that reconfigure shared decision inputs; each bumps the
   control-plane epoch so a reload/patch is a fenced, observable event
   rather than a silent mid-stream mutation *)
let is_control = function
  | Wire.Fail _ | Wire.Repair _ | Wire.Reload | Wire.Link_add _
  | Wire.Link_del _ | Wire.Drain ->
    true
  | Wire.Setup _ | Wire.Teardown _ | Wire.Stats | Wire.Quit | Wire.Hello _ ->
    false

type source = Line of string | Parsed of Wire.command

(* serialization discipline as a first-class (polymorphic) section:
   the identity for the single-domain loop, the decision mutex for the
   sharded ones *)
type sync = { sync : 'a. (unit -> 'a) -> 'a }

(* The decision core for one loop: [handle_line]/[handle_batch] parse
   (lines), decide through {!Session}, account metrics and the tap, and
   write the reply.  [sync] owns serialization — the identity
   single-domain, the decision mutex sharded; [after] runs inside
   [sync] after each line or batch (the sharded loop's drained
   check). *)
let command_handler ~metrics ~logger ~clock ~state ~tap ~epoch ~domain ~sync
    ~after ~close_conn =
  let module Log = Arnet_obs.Logger in
  let decide_core cmd =
    let response = Session.handle state cmd in
    if is_control cmd then Atomic.incr epoch;
    response
  in
  (* timed only when someone records the result: the metrics-free
     daemon (the bench baseline) keeps its exact pre-telemetry path *)
  let apply ~decide source =
    let t0 = match metrics with Some _ -> clock () | None -> 0. in
    let cmd_result =
      match source with
      | Line line -> Wire.parse_command line
      | Parsed cmd -> Ok cmd
    in
    let cmd, response =
      match cmd_result with
      | Error (code, detail) -> (None, Wire.Err { code; detail })
      | Ok cmd -> (Some cmd, decide cmd)
    in
    (match metrics with
    | Some m ->
      let verb =
        match cmd with
        | Some cmd ->
          Service_metrics.record m state cmd response;
          Service_metrics.verb cmd
        | None ->
          Service_metrics.record_malformed m;
          "malformed"
      in
      Service_metrics.record_domain m domain;
      let verdict = Service_metrics.verdict response in
      let seconds = clock () -. t0 in
      if Service_metrics.record_latency m ~verb ~verdict seconds then
        Log.warn logger "slow command"
          ~fields:
            [ ("verb", Arnet_obs.Jsonu.String verb);
              ("verdict", Arnet_obs.Jsonu.String verdict);
              ("seconds", Arnet_obs.Jsonu.Float seconds) ]
    | None -> ());
    (match (tap, cmd) with Some f, Some cmd -> f cmd response | _ -> ());
    (cmd, response)
  in
  (* HELLO is transport negotiation, never a State command: the mode
     switch happens here, after the OK is committed to the line
     framing, so the client reads one last text response and everything
     after it is frames *)
  let decide_line c cmd =
    match cmd with
    | Wire.Hello { mode } -> (
      match String.lowercase_ascii mode with
      | "binary" ->
        c.proto <- Binary;
        Wire.Done
      | "line" -> Wire.Done
      | _ ->
        Wire.Err
          { code = "bad-argument";
            detail =
              Printf.sprintf "unknown framing mode %S (line | binary)" mode })
    | cmd -> decide_core cmd
  in
  let handle_line c line =
    let cmd, response =
      sync.sync (fun () ->
          let r = apply ~decide:(decide_line c) (Line line) in
          after ();
          r)
    in
    (try write_all c.fd (Wire.print_response response ^ "\n")
     with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
       close_conn c);
    match cmd with Some Wire.Quit -> close_conn c | _ -> ()
  in
  (* one lock round and one reply write for the whole frame — the
     syscall amortization the binary framing exists for *)
  let handle_batch c cmds =
    let responses =
      sync.sync (fun () ->
          (match metrics with
          | Some m -> Service_metrics.record_batch m (List.length cmds)
          | None -> ());
          let rs =
            List.map
              (fun cmd -> snd (apply ~decide:decide_core (Parsed cmd)))
              cmds
          in
          after ();
          rs)
    in
    (try write_all c.fd (Bwire.encode_replies responses)
     with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
       close_conn c);
    if List.exists (function Wire.Quit -> true | _ -> false) cmds then
      close_conn c
  in
  let reject_too_long c =
    (match metrics with
    | Some m -> sync.sync (fun () -> Service_metrics.record_malformed m)
    | None -> ());
    (try
       write_all c.fd
         (Wire.print_response
            (Wire.Err
               {
                 code = "toolong";
                 detail =
                   Printf.sprintf "line exceeds %d bytes" max_line_bytes;
               })
         ^ "\n")
     with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
    close_conn c
  in
  (* a structurally bad frame is connection-fatal: answer one ERR
     reply frame (the client may be mid-read on a batch) and drop *)
  let binary_fatal c err =
    (match metrics with
    | Some m -> sync.sync (fun () -> Service_metrics.record_malformed m)
    | None -> ());
    (try
       write_all c.fd
         (Bwire.encode_replies
            [ Wire.Err
                { code = "bad-frame"; detail = Bwire.error_to_string err } ])
     with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
    close_conn c
  in
  (handle_line, handle_batch, reject_too_long, binary_fatal)

let http_handler ~logger ~routes ~close_conn =
  let module Log = Arnet_obs.Logger in
  let module Http = Arnet_obs.Http_exporter in
  let http_respond c (resp : Http.response) =
    if resp.Http.status <> 200 then
      Log.warn logger "telemetry request refused"
        ~fields:
          [ ("status", Arnet_obs.Jsonu.Int resp.Http.status);
            ("reason", Arnet_obs.Jsonu.String resp.Http.reason) ];
    (try write_all c.fd (Http.render resp)
     with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
    close_conn c
  in
  (* answer as soon as the request head is complete ([eof] stands in
     for the blank line when the client half-closes instead); a first
     line that is already malformed is refused without waiting.  Every
     outcome — 200, 400, 404, 405 — is one response then close, and
     none of them touches the command loop *)
  fun ?(eof = false) c ->
    let data = Buffer.contents c.buf in
    match String.index_opt data '\n' with
    | None ->
      if Buffer.length c.buf > max_line_bytes then
        http_respond c (Http.bad_request "request line too long")
      else if eof then close_conn c
    | Some i -> (
      let first = chomp_cr (String.sub data 0 i) in
      match Http.parse_request_line first with
      | Error detail -> http_respond c (Http.bad_request detail)
      | Ok _ ->
        if head_complete data || eof then
          http_respond c (Http.handle ~routes first)
        else if Buffer.length c.buf > max_line_bytes then
          http_respond c (Http.bad_request "request head too long"))

(* read-side pump for one loop's connections: bytes into lines, frames
   or an HTTP head depending on the connection's (switchable) proto *)
let conn_pump ~conns ~(handle_http : ?eof:bool -> conn -> unit) ~handle_line
    ~handle_batch ~reject_too_long ~binary_fatal ~close_conn ~chunk =
  let alive c = Hashtbl.mem conns c.fd in
  let pump_binary c =
    let data = Buffer.contents c.buf in
    Buffer.clear c.buf;
    let n = String.length data in
    let rec go off =
      if not (alive c) then ()
      else if off >= n then ()
      else
        match Bwire.decode ~off data with
        | Ok (Bwire.Commands cmds, used) ->
          handle_batch c cmds;
          go (off + used)
        | Ok (Bwire.Replies _, _) ->
          binary_fatal c (Bwire.Corrupt "reply frame from a client")
        | Error (Bwire.Truncated _) ->
          (* an incomplete frame waits for more bytes; Bwire's
             oversize check bounds how much one connection can make us
             hold *)
          Buffer.add_substring c.buf data off (n - off)
        | Error err -> binary_fatal c err
    in
    go 0
  in
  let rec pump c =
    if alive c then
      match c.proto with
      | Http -> handle_http c
      | Binary -> pump_binary c
      | Command -> (
        match take_line c.buf with
        | Some line ->
          if String.length line > max_line_bytes then reject_too_long c
          else begin
            handle_line c line;
            (* the line may have been HELLO binary: pump again so the
               rest of the buffer is framed under the new proto *)
            pump c
          end
        | None ->
          (* an unterminated line can also outgrow the ceiling: without
             this, a client sending no newline at all grows [buf]
             without bound *)
          if Buffer.length c.buf > max_line_bytes then reject_too_long c)
  in
  fun c ->
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> (
      match c.proto with
      | Http -> handle_http ~eof:true c
      | Command | Binary -> close_conn c)
    | n ->
      Buffer.add_subbytes c.buf chunk 0 n;
      pump c
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> close_conn c

(* shared front matter: sigpipe, the default registry behind a
   telemetry endpoint, both listeners, the listen log lines *)
let serve_setup ~metrics ~telemetry ~logger ~on_listen addr =
  let module Log = Arnet_obs.Logger in
  (* a client that disconnects mid-response must cost a dropped
     connection, not the whole daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (* a telemetry endpoint without a caller-shared registry still needs
     one to serve from *)
  let metrics =
    match (metrics, telemetry) with
    | None, Some _ -> Some (Service_metrics.create ())
    | m, _ -> m
  in
  let listener, cleanup_listener = bind_listener addr in
  let telemetry_listener =
    match telemetry with
    | None -> None
    | Some taddr -> (
      match bind_listener taddr with
      | l -> Some l
      | exception e ->
        cleanup_listener ();
        raise e)
  in
  let cleanup_listeners () =
    cleanup_listener ();
    match telemetry_listener with Some (_, c) -> c () | None -> ()
  in
  (match on_listen with Some f -> f addr | None -> ());
  Log.info logger "listening"
    ~fields:[ ("addr", Arnet_obs.Jsonu.String (addr_to_string addr)) ];
  Option.iter
    (fun taddr ->
      Log.info logger "telemetry listening"
        ~fields:[ ("addr", Arnet_obs.Jsonu.String (addr_to_string taddr)) ])
    telemetry;
  (metrics, listener, telemetry_listener, cleanup_listeners)

let telemetry_routes ~metrics ~state ~epoch ~sync =
  let module Http = Arnet_obs.Http_exporter in
  match metrics with
  | None -> []
  | Some m ->
    [ ("/metrics",
       fun () ->
         sync.sync (fun () ->
             Service_metrics.set_epoch m (Atomic.get epoch);
             (Http.prometheus_content_type, Service_metrics.scrape m state)));
      ("/healthz", fun () -> (Http.text_content_type, "ok\n"));
      ("/statz",
       fun () ->
         sync.sync (fun () ->
             ( Http.json_content_type,
               Arnet_obs.Jsonu.to_string (Service_metrics.statz m state)
               ^ "\n" ))) ]

(* ------------------------------------------------------------------ *)
(* the single-domain loop: one select over the listeners and every
   connection, decisions applied inline in wire-read order — the
   pre-sharding daemon, kept as its own loop so [--domains 1] is the
   same code path (and the same decision stream) it always was *)

let serve_single ~metrics ~telemetry ~logger ~snapshot ~on_listen ~tap ~state
    addr =
  let metrics, listener, telemetry_listener, cleanup_listeners =
    serve_setup ~metrics ~telemetry ~logger ~on_listen addr
  in
  let clock = Arnet_obs.Span.monotonic () in
  let epoch = Atomic.make 0 in
  let sync = { sync = (fun f -> f ()) } in
  let routes = telemetry_routes ~metrics ~state ~epoch ~sync in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let close_conn c =
    Hashtbl.remove conns c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let handle_line, handle_batch, reject_too_long, binary_fatal =
    command_handler ~metrics ~logger ~clock ~state ~tap ~epoch ~domain:0 ~sync
      ~after:(fun () -> ())
      ~close_conn
  in
  let handle_http = http_handler ~logger ~routes ~close_conn in
  let chunk = Bytes.create 4096 in
  let handle_readable =
    conn_pump ~conns ~handle_http ~handle_line ~handle_batch ~reject_too_long
      ~binary_fatal ~close_conn ~chunk
  in
  let adopt conn_fd proto =
    Hashtbl.replace conns conn_fd
      { fd = conn_fd; buf = Buffer.create 256; proto }
  in
  let rec loop () =
    if State.drained state then ()
    else begin
      let fds = listener :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
      let telemetry_fd = Option.map fst telemetry_listener in
      let fds =
        match telemetry_fd with Some tl -> tl :: fds | None -> fds
      in
      match Unix.select fds [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = listener then adopt (accept_command listener) Command
            else if telemetry_fd = Some fd then
              adopt (fst (Unix.accept fd)) Http
            else
              match Hashtbl.find_opt conns fd with
              | Some c -> handle_readable c
              | None -> ())
          readable;
        loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
      cleanup_listeners ())
    (fun () ->
      loop ();
      State.finish state;
      match snapshot with
      | Some path -> Arnet_serial.Snapshot.to_file path (State.snapshot state)
      | None -> ())

(* ------------------------------------------------------------------ *)
(* the sharded loops: domain 0 (the calling domain) is the dispatcher —
   it accepts, deals connections round-robin to D spawned worker
   domains, and serves telemetry — while each worker runs its own
   select loop over its own connections.  Reads, binary frame decoding,
   reply printing/encoding and writes run in parallel across workers.
   Everything [command_handler] does per line or batch runs under one
   mutex, batch-at-a-time: the decision, and with it the text-line
   parse ([Wire.parse_command]), the metrics recording and the tap.  So
   admissions stay a total order (the paper's call-by-call semantics,
   and what makes the merged-order replay test meaningful) while the
   syscall work — the measured bottleneck — shards.  Unix-domain listeners get nothing
   from SO_REUSEPORT, so one dispatcher covers both address families. *)

type worker_slot = {
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;  (** self-pipe: new conns, or stop *)
  queue : Unix.file_descr list ref;  (** conns dealt, not yet adopted *)
  queue_mu : Mutex.t;
}

let serve_sharded ~domains ~metrics ~telemetry ~logger ~snapshot ~on_listen
    ~tap ~state addr =
  let metrics, listener, telemetry_listener, cleanup_listeners =
    serve_setup ~metrics ~telemetry ~logger ~on_listen addr
  in
  let lock = Mutex.create () in
  let epoch = Atomic.make 0 in
  let stop = Atomic.make false in
  let clock = Arnet_obs.Span.monotonic () in
  let slots =
    Array.init domains (fun _ ->
        let wake_r, wake_w = Unix.pipe () in
        { wake_r; wake_w; queue = ref []; queue_mu = Mutex.create () })
  in
  let stop_r, stop_w = Unix.pipe () in
  let wake fd =
    try ignore (Unix.write fd (Bytes.of_string "!") 0 1 : int)
    with Unix.Unix_error _ -> ()
  in
  let drain_pipe fd =
    let b = Bytes.create 64 in
    try ignore (Unix.read fd b 0 64 : int) with Unix.Unix_error _ -> ()
  in
  (* first drained observation wins; every loop is poked exactly once *)
  let announce_stop () =
    if not (Atomic.exchange stop true) then begin
      Array.iter (fun s -> wake s.wake_w) slots;
      wake stop_w
    end
  in
  let sync =
    { sync =
        (fun f ->
          Mutex.lock lock;
          Fun.protect ~finally:(fun () -> Mutex.unlock lock) f) }
  in
  let after () = if State.drained state then announce_stop () in
  let worker index slot () =
    let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
    let close_conn c =
      Hashtbl.remove conns c.fd;
      try Unix.close c.fd with Unix.Unix_error _ -> ()
    in
    let handle_line, handle_batch, reject_too_long, binary_fatal =
      command_handler ~metrics ~logger ~clock ~state ~tap ~epoch
        ~domain:(index + 1) ~sync ~after ~close_conn
    in
    (* workers never serve HTTP; a route-less handler keeps the pump
       total if a conn record were ever mislabeled *)
    let handle_http = http_handler ~logger ~routes:[] ~close_conn in
    let chunk = Bytes.create 4096 in
    let handle_readable =
      conn_pump ~conns ~handle_http ~handle_line ~handle_batch
        ~reject_too_long ~binary_fatal ~close_conn ~chunk
    in
    let adopt () =
      Mutex.lock slot.queue_mu;
      let fresh = !(slot.queue) in
      slot.queue := [];
      Mutex.unlock slot.queue_mu;
      List.iter
        (fun fd ->
          Hashtbl.replace conns fd
            { fd; buf = Buffer.create 256; proto = Command })
        fresh
    in
    let rec loop () =
      if Atomic.get stop then ()
      else begin
        adopt ();
        let fds =
          slot.wake_r :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
        in
        match Unix.select fds [] [] (-1.) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | readable, _, _ ->
          List.iter
            (fun fd ->
              if fd = slot.wake_r then drain_pipe slot.wake_r
              else
                match Hashtbl.find_opt conns fd with
                | Some c -> handle_readable c
                | None -> ())
            readable;
          loop ()
      end
    in
    Fun.protect
      ~finally:(fun () ->
        Hashtbl.iter
          (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
          conns)
      loop
  in
  let spawned = Array.mapi (fun i slot -> Domain.spawn (worker i slot)) slots in
  (* a domain may be joined only once; stop-and-join runs in the normal
     path and again from [finally] on an exceptional exit *)
  let joined = ref false in
  let stop_and_join () =
    if not !joined then begin
      joined := true;
      announce_stop ();
      Array.iter Domain.join spawned
    end
  in
  (* dispatcher: accept-and-deal plus telemetry, no decisions *)
  let routes = telemetry_routes ~metrics ~state ~epoch ~sync in
  let http_conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 8 in
  let close_http c =
    Hashtbl.remove http_conns c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let handle_http = http_handler ~logger ~routes ~close_conn:close_http in
  let chunk = Bytes.create 4096 in
  let next = ref 0 in
  let deal fd =
    let slot = slots.(!next mod domains) in
    incr next;
    Mutex.lock slot.queue_mu;
    slot.queue := fd :: !(slot.queue);
    Mutex.unlock slot.queue_mu;
    wake slot.wake_w
  in
  let rec loop () =
    if Atomic.get stop then ()
    else begin
      let fds =
        listener :: stop_r
        :: Hashtbl.fold (fun fd _ acc -> fd :: acc) http_conns []
      in
      let telemetry_fd = Option.map fst telemetry_listener in
      let fds = match telemetry_fd with Some tl -> tl :: fds | None -> fds in
      match Unix.select fds [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = stop_r then drain_pipe stop_r
            else if fd = listener then deal (accept_command listener)
            else if telemetry_fd = Some fd then begin
              let conn_fd, _ = Unix.accept fd in
              Hashtbl.replace http_conns conn_fd
                { fd = conn_fd; buf = Buffer.create 256; proto = Http }
            end
            else
              match Hashtbl.find_opt http_conns fd with
              | Some c -> (
                match Unix.read c.fd chunk 0 (Bytes.length chunk) with
                | 0 -> handle_http ~eof:true c
                | n ->
                  Buffer.add_subbytes c.buf chunk 0 n;
                  handle_http c
                | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
                  close_http c)
              | None -> ())
          readable;
        loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      stop_and_join ();
      Hashtbl.iter
        (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        http_conns;
      Array.iter
        (fun s ->
          (try Unix.close s.wake_r with Unix.Unix_error _ -> ());
          try Unix.close s.wake_w with Unix.Unix_error _ -> ())
        slots;
      (try Unix.close stop_r with Unix.Unix_error _ -> ());
      (try Unix.close stop_w with Unix.Unix_error _ -> ());
      cleanup_listeners ())
    (fun () ->
      loop ();
      stop_and_join ();
      State.finish state;
      match snapshot with
      | Some path -> Arnet_serial.Snapshot.to_file path (State.snapshot state)
      | None -> ())

let serve ?domains ?metrics ?telemetry ?(logger = Arnet_obs.Logger.null)
    ?snapshot ?on_listen ?tap ~state addr =
  let domains =
    match domains with Some d -> d | None -> Arnet_pool.of_env ()
  in
  if domains < 1 then invalid_arg "Server.serve: domains must be >= 1";
  if domains = 1 then
    serve_single ~metrics ~telemetry ~logger ~snapshot ~on_listen ~tap ~state
      addr
  else
    serve_sharded ~domains ~metrics ~telemetry ~logger ~snapshot ~on_listen
      ~tap ~state addr
