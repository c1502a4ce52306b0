module Json = Pet_pet.Json
module Proto = Pet_server.Proto
module Service = Pet_server.Service
module Session = Pet_server.Session
module Shared = Pet_server.Shared
module Persist = Pet_server.Persist
module Store = Pet_store.Store
module Flight_log = Pet_store.Flight_log
module Flight = Pet_obs.Flight
module Obs = Pet_obs.Metrics
module Log = Pet_obs.Log
module Trace = Pet_obs.Trace
module Tenant = Pet_tenant.Tenant

(* --- Wiring -------------------------------------------------------------------

   One driver ({!serve}), two transports. The driver owns the serving
   lifecycle — store recovery, replay, horizons, the flight journal, the
   exit dump, shutdown — and hands the recovered services to either:
   - the inline transport (stdio): one standalone service answering
     stdin lines on the calling domain, its WAL sink synchronous;
   - the TCP transport, below.

   TCP threads and domains:
   - the main domain runs the acceptor thread plus one thread per
     connection (blocking line I/O releases the runtime lock, so they
     interleave freely);
   - each shard is a domain running a plain queue-drain loop over its
     own [Service.t] — sessions never leave their shard, so the service
     needs no locking;
   - one writer domain ([Group_commit]) owns every WAL append.

   A request travels: connection thread → (queue) shard domain →
   (submit) writer domain → back to the shard, which writes the
   response line to the socket itself, after the commit. The reading
   and writing halves of a connection are decoupled on purpose: the
   reader can queue further requests (up to [max_outstanding]) while
   earlier ones commit, which is what keeps every shard loaded and the
   writer's batches full. A client that pipelines must correlate
   responses by their echoed "id" — responses to requests that landed
   on different shards may interleave; a lockstep client (one request
   in flight, like `pet ping`) always sees strict request order. *)

(* --- Flight journal ------------------------------------------------------------ *)

(* A journal and its one encoder. Every record — log tee, snapshots,
   slow traces, lifecycle marks — takes its [seq] from [enc] and its
   timestamp from the obs clock, so the sequence is gap-free whichever
   domain wrote the record. *)
type journal = { log : Flight_log.t; enc : Flight.t }

let journal_append j record =
  try Flight_log.append j.log record with Sys_error _ -> ()

(* One snapshot record. Service gauges and SLO reports are synced first
   (the SLO clock is the service clock, the timeline [Slo.record]
   stamped); the record itself carries the obs clock. Call only where
   [service] is not serving concurrently. *)
let snap_record j ~now ~store service =
  let service_now = now () in
  Service.sync_gauges service;
  Pet_obs.Slo.sync Service.slo ~now:service_now;
  Flight.snap j.enc
    ?wal:(Option.map Store.position store)
    ~now:(Obs.now ()) (Obs.snapshot ())

(* One live connection. The reader thread owns the descriptor's
   lifetime; shards share the write side under [wm]. [outstanding]
   counts requests queued but not yet answered: the reader blocks at
   [max_outstanding] (backpressure), and close waits for it to drain to
   zero so no shard can ever write to a recycled descriptor. *)
type conn = {
  oc : out_channel;
  wm : Mutex.t;
  cm : Mutex.t;
  cc : Condition.t;
  mutable outstanding : int;
  mutable closed : bool;
      (* reader saw EOF: watch streamers must stop producing frames so
         the outstanding budget can drain and the descriptor close *)
}

let max_outstanding = 64

type job = Request of { line : string; conn : conn } | Tick | Snap
(* [Snap] asks shard 0 to assemble one flight-recorder snapshot (its
   own service's gauges are safe to sync there) and hand it to the
   writer domain. *)

type shard = {
  index : int;
  service : Service.t;
  q : job Queue.t;
  qm : Mutex.t;
  qc : Condition.t;
  pending : Persist.event list ref;
      (* events the request being handled emitted, newest first; the
         shard flushes them to the writer before replying *)
  obs_requests : Obs.counter;
  obs_active : Obs.gauge;
  obs_queue : Obs.gauge;
  mutable stopped : bool;
  mutable domain : unit Domain.t option;
}

type t = {
  shards : shard array;
  tenants : Service.compiled Tenant.t;
      (* process-wide tenant registry, shared by every shard; the
         server stops its builder domain *)
  writer : Group_commit.t option;
  journal : journal option;
  store_h : Store.t option;  (* for WAL-frontier stamps on snapshots *)
  nowf : unit -> float;
  listen : Unix.file_descr;
  port : int;
  rr : int Atomic.t;  (* round-robin for sessionless requests *)
  conns : int Atomic.t;
  stop_flag : bool Atomic.t;
  failure : string option ref;
  fm : Mutex.t;
  fc : Condition.t;
  mutable acceptor : Thread.t option;
  mutable ticker : Thread.t option;
}

let obs_accepted = Obs.counter "pet_net_accepted_total"
let obs_conns = Obs.gauge "pet_net_connections"

(* --- Routing ------------------------------------------------------------------- *)

(* Cheap scan for a top-level ["session":"<id>"] pair without parsing
   the JSON on the connection thread — the shard parses for real. A
   false positive (the pattern inside some string value) can only route
   the request to a shard that does not know the session, which answers
   [unknown_session] exactly as a wrong id would; it cannot crash or
   cross state between shards. *)
let session_hint line =
  let key = {|"session"|} in
  let len = String.length line and klen = String.length key in
  let is_ws c = c = ' ' || c = '\t' in
  let rec skip_ws i = if i < len && is_ws line.[i] then skip_ws (i + 1) else i in
  let rec search from =
    let from = Proto.index_sub line key ~from in
    if from < 0 then None
    else
      let i = skip_ws (from + klen) in
      if i >= len || line.[i] <> ':' then search (from + 1)
      else
        let i = skip_ws (i + 1) in
        if i >= len || line.[i] <> '"' then search (from + 1)
        else
          match String.index_from_opt line (i + 1) '"' with
          | Some j when j > i + 1 -> Some (String.sub line (i + 1) (j - i - 1))
          | _ -> search (from + 1)
  in
  search 0

let route t line =
  let shards = Array.length t.shards in
  if shards = 1 then 0
  else
    match session_hint line with
    | Some id -> Shard_map.owner ~shards id
    | None -> Atomic.fetch_and_add t.rr 1 mod shards

(* --- Failure ------------------------------------------------------------------- *)

(* A WAL failure is fatal: the shard answers the one affected client
   with an [internal] error (its state change is in memory but was never
   durable) and flags the server; [wait] returns so the driver can shut
   down. Matches the stdio server, where the same [Sys_error] kills the
   serving loop. *)
let fail t reason =
  Mutex.lock t.fm;
  let first = !(t.failure) = None in
  if first then t.failure := Some reason;
  Condition.broadcast t.fc;
  Mutex.unlock t.fm;
  (* Fatal-path flight record, written directly (the writer domain may
     be the thing that failed): the journal's last words say why. *)
  if first then
    Option.iter
      (fun j ->
        journal_append j
          (Flight.meta j.enc ~now:(Obs.now ()) ~event:"fatal"
             [ ("reason", reason) ]))
      t.journal

let wait t =
  Mutex.lock t.fm;
  while !(t.failure) = None && not (Atomic.get t.stop_flag) do
    Condition.wait t.fc t.fm
  done;
  let result = match !(t.failure) with Some m -> Error m | None -> Ok () in
  Mutex.unlock t.fm;
  result

(* --- Shard domains -------------------------------------------------------------- *)

let enqueue shard job =
  Mutex.lock shard.qm;
  Queue.add job shard.q;
  Obs.set_gauge shard.obs_queue (float_of_int (Queue.length shard.q));
  Condition.signal shard.qc;
  Mutex.unlock shard.qm

let sync_active shard =
  Obs.set_gauge shard.obs_active
    (float_of_int (Service.session_counters shard.service).Session.active)

(* Assemble one flight snapshot on a shard domain (syncing that shard's
   service gauges is safe there) and queue it behind the WAL batches.
   Slow traces ride along; the encoder dedups ids, so a trace is
   journaled once no matter how many ticks see it. *)
let emit_snap t shard =
  match (t.writer, t.journal) with
  | Some writer, Some j ->
    let record = snap_record j ~now:t.nowf ~store:t.store_h shard.service in
    let traces = Flight.slow_traces j.enc ~now:(Obs.now ()) (Trace.slow ()) in
    List.iter (Group_commit.submit_flight writer) (record :: traces)
  | _ -> ()

(* Deliver a response line on the connection's write side, then release
   one slot of its outstanding budget. A write failure means the client
   went away; its remaining responses are dropped but the accounting
   still runs, so the reader can drain and close. *)
let respond conn response =
  Mutex.lock conn.wm;
  (try
     output_string conn.oc response;
     output_char conn.oc '\n';
     flush conn.oc
   with Sys_error _ -> ());
  Mutex.unlock conn.wm;
  Mutex.lock conn.cm;
  conn.outstanding <- conn.outstanding - 1;
  Condition.broadcast conn.cc;
  Mutex.unlock conn.cm

let handle_request t shard line conn =
  Obs.incr shard.obs_requests;
  let response =
    let response = Service.handle_line shard.service line in
    match t.writer with
    | None -> response
    | Some writer -> (
      match List.rev !(shard.pending) with
      | [] -> response
      | events -> (
        shard.pending := [];
        match Group_commit.submit writer events with
        | () -> response
        | exception Sys_error m ->
          let reason = "write-ahead log failure: " ^ m in
          Log.error "net.wal_failed" ~fields:[ ("reason", Trace.String m) ];
          fail t reason;
          Proto.error_response ~id:Json.Null (Proto.error Proto.Internal reason)
        ))
  in
  sync_active shard;
  respond conn response

let rec shard_loop t shard =
  Mutex.lock shard.qm;
  while Queue.is_empty shard.q && not shard.stopped do
    Condition.wait shard.qc shard.qm
  done;
  if Queue.is_empty shard.q then Mutex.unlock shard.qm (* stopped, drained *)
  else begin
    let job = Queue.pop shard.q in
    Obs.set_gauge shard.obs_queue (float_of_int (Queue.length shard.q));
    Mutex.unlock shard.qm;
    (match job with
    | Tick ->
      ignore (Service.sweep_tick ~budget:256 shard.service);
      sync_active shard
    | Snap -> emit_snap t shard
    | Request { line; conn } -> handle_request t shard line conn);
    shard_loop t shard
  end

(* --- Connection threads ----------------------------------------------------------- *)

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* Stream a watch subscription: a dedicated thread re-enqueues the same
   request line every [interval], so each frame travels the ordinary
   request path (same queues, same outstanding budget, one ok-response
   per frame echoing the id). Stops after [frames] frames, when the
   reader sees EOF ([conn.closed]) or at server stop — the [closed]
   check is what lets the close path drain [outstanding] to zero. *)
let start_watch t conn line ~interval ~frames =
  let shard = t.shards.(route t line) in
  ignore
    (Thread.create
       (fun () ->
         let rec go sent =
           if not (Atomic.get t.stop_flag) then begin
             Mutex.lock conn.cm;
             while conn.outstanding >= max_outstanding && not conn.closed do
               Condition.wait conn.cc conn.cm
             done;
             let stop = conn.closed in
             if not stop then conn.outstanding <- conn.outstanding + 1;
             Mutex.unlock conn.cm;
             if not stop then begin
               enqueue shard (Request { line; conn });
               let sent = sent + 1 in
               if frames = 0 || sent < frames then begin
                 if interval > 0. then Thread.delay interval;
                 go sent
               end
             end
           end
         in
         go 0)
       ())

let conn_loop t ic conn =
  let rec go () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line ->
      let line = strip_cr line in
      let trimmed = String.trim line in
      if trimmed = "" then go ()
      else if trimmed = "quit" then ()
      else if Atomic.get t.stop_flag then ()
      else begin
        (match Proto.watch_request line with
        | Some (interval, frames) ->
          start_watch t conn line ~interval ~frames
        | None ->
          let shard = t.shards.(route t line) in
          Mutex.lock conn.cm;
          while conn.outstanding >= max_outstanding do
            Condition.wait conn.cc conn.cm
          done;
          conn.outstanding <- conn.outstanding + 1;
          Mutex.unlock conn.cm;
          enqueue shard (Request { line; conn }));
        go ()
      end
  in
  go ()

let handle_conn t fd =
  Atomic.incr t.conns;
  Obs.set_gauge obs_conns (float_of_int (Atomic.get t.conns));
  let ic = Unix.in_channel_of_descr fd in
  let conn =
    {
      oc = Unix.out_channel_of_descr fd;
      wm = Mutex.create ();
      cm = Mutex.create ();
      cc = Condition.create ();
      outstanding = 0;
      closed = false;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      (* Wait for every queued request's response before closing: a
         shard must never write to a descriptor that may have been
         recycled by a newer accept. Raising [closed] first stops any
         watch streamer from producing further frames, so the budget
         can actually reach zero. *)
      Mutex.lock conn.cm;
      conn.closed <- true;
      Condition.broadcast conn.cc;
      while conn.outstanding > 0 do
        Condition.wait conn.cc conn.cm
      done;
      Mutex.unlock conn.cm;
      Atomic.decr t.conns;
      Obs.set_gauge obs_conns (float_of_int (Atomic.get t.conns));
      (* Exactly one close: channels and [conn.fd] share the
         descriptor, and the reader thread is its sole owner. *)
      close_out_noerr conn.oc)
    (fun () ->
      try conn_loop t ic conn with Sys_error _ | End_of_file -> ())

let acceptor_loop t =
  let rec go () =
    match Unix.accept ~cloexec:true t.listen with
    | fd, _ ->
      Obs.incr obs_accepted;
      (* Replies are small single writes; without this, Nagle's
         algorithm holds one back until the client's delayed ACK. *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      ignore (Thread.create (fun () -> handle_conn t fd) ());
      go ()
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ ->
      (* [stop] shuts the listener down to wake this thread; anything
         else on a closed/shut socket also means we are done. *)
      ()
  in
  go ()

let ticker_loop t interval =
  while not (Atomic.get t.stop_flag) do
    Thread.delay interval;
    if not (Atomic.get t.stop_flag) then begin
      Array.iter (fun shard -> enqueue shard Tick) t.shards;
      (* One flight snapshot per sweep, assembled on shard 0. *)
      if t.journal <> None then enqueue t.shards.(0) Snap
    end
  done

(* --- TCP lifecycle ---------------------------------------------------------------- *)

type transport =
  | Stdio
  | Tcp of { port : int; domains : int; port_file : string option }

(* The services a transport serves from: stdio's one standalone
   service, or one per TCP shard, each creating only the session ids it
   owns, with rule texts, ledgers and consents in one [Shared] state. *)
let create_services ?backend ?compiled ?payoff ?capacity ?ttl ?resolve
    ~tenants ~durable ~now transport =
  let make ?owns ?shared () =
    Service.create ?backend ?compiled ?payoff ?capacity ?ttl ?resolve ?owns
      ?shared ~tenants ~durable ~now ()
  in
  match transport with
  | Stdio -> [| make () |]
  | Tcp { domains; _ } ->
    let shards = max 1 domains in
    let shared = Shared.create () in
    Array.init shards (fun index ->
        make ~owns:(fun id -> Shard_map.owner ~shards id = index) ~shared ())

(* Recovery, for both transports. Replay routes each event to the
   service that will serve it — the id hash is stable across runs —
   before any domain is spawned, so no locking is needed. Rule sets and
   grants go to service 0: texts and ledgers land in the shared state
   either way, and any other shard recompiles lazily from the shared
   text on first touch. [report] sees the replay-error count; then the
   horizons that passed while the process was down take effect before
   the first request (the consent store is shared, so one pass covers
   every shard). *)
let recover ?(report = ignore) services events =
  let shards = Array.length services in
  let errors =
    List.fold_left
      (fun errors event ->
        let target =
          match event with
          | Persist.Rules _ | Persist.Tenant_published _ | Persist.Grant _ -> 0
          | Persist.Session_created { id; _ }
          | Persist.Session_chosen { id; _ }
          | Persist.Session_submitted { id; _ }
          | Persist.Session_revoked { id; _ }
          | Persist.Session_expiry { id; _ } ->
            Shard_map.owner ~shards id
        in
        match Service.apply_event services.(target) event with
        | Ok () -> errors
        | Error reason ->
          Log.error "store.replay_error"
            ~fields:[ ("reason", Trace.String reason) ];
          errors + 1)
      0 events
  in
  report errors;
  let expired = Service.apply_horizons services.(0) in
  if expired > 0 then
    Log.info "store.horizons_applied" ~fields:[ ("expired", Trace.Int expired) ]

(* Attach the group-commit sinks, bind, and spawn the shard domains,
   the writer domain (when [store] is given), the acceptor thread and
   the sweep ticker. *)
let launch services ~tenants ?store ?journal ~sweep_interval ~port ~now () =
  let domains = Array.length services in
  let shards =
    Array.mapi
      (fun index service ->
        let labels = [ ("domain", string_of_int index) ] in
        {
          index;
          service;
          q = Queue.create ();
          qm = Mutex.create ();
          qc = Condition.create ();
          pending = ref [];
          obs_requests = Obs.counter ~labels "pet_net_shard_requests_total";
          obs_active = Obs.gauge ~labels "pet_net_shard_sessions_active";
          obs_queue = Obs.gauge ~labels "pet_net_shard_queue_depth";
          stopped = false;
          domain = None;
        })
      services
  in
  if store <> None then
    Array.iter
      (fun shard ->
        Service.set_sink shard.service
          {
            Persist.emit =
              (fun event -> shard.pending := event :: !(shard.pending));
          })
      shards;
  match
    let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
    Unix.setsockopt fd SO_REUSEADDR true;
    Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 128;
    fd
  with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "cannot listen on port %d: %s" port
             (Unix.error_message e))
  | listen ->
    let port =
      match Unix.getsockname listen with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    let flight = Option.map (fun j -> j.log) journal in
    let t =
      {
        shards;
        tenants;
        writer =
          Option.map (Group_commit.start ~batch_target:domains ?flight) store;
        journal;
        store_h = store;
        nowf = now;
        listen;
        port;
        rr = Atomic.make 0;
        conns = Atomic.make 0;
        stop_flag = Atomic.make false;
        failure = ref None;
        fm = Mutex.create ();
        fc = Condition.create ();
        acceptor = None;
        ticker = None;
      }
    in
    Array.iter
      (fun shard ->
        shard.domain <- Some (Domain.spawn (fun () -> shard_loop t shard)))
      t.shards;
    t.acceptor <- Some (Thread.create (fun () -> acceptor_loop t) ());
    if sweep_interval > 0. then
      t.ticker <- Some (Thread.create (fun () -> ticker_loop t sweep_interval) ());
    Obs.set_gauge
      (Obs.gauge ~help:"Shard domains serving this process." "pet_net_domains")
      (float_of_int domains);
    Log.info "net.listening"
      ~fields:
        [ ("port", Trace.Int port); ("domains", Trace.Int domains) ];
    Ok t

let start ?backend ?compiled ?payoff ?capacity ?ttl ?(tenant_quota = 0)
    ?resolve ?store ?(recovery = []) ?(sweep_interval = 1.) ?flight ~domains
    ~port ~now () =
  let tenants = Tenant.create ~quota:tenant_quota () in
  let services =
    create_services ?backend ?compiled ?payoff ?capacity ?ttl ?resolve
      ~tenants ~durable:(store <> None) ~now
      (Tcp { port; domains; port_file = None })
  in
  recover services recovery;
  let journal = Option.map (fun log -> { log; enc = Flight.create () }) flight in
  launch services ~tenants ?store ?journal ~sweep_interval ~port ~now ()

let port t = t.port

let stop t =
  if not (Atomic.exchange t.stop_flag true) then begin
    Mutex.lock t.fm;
    Condition.broadcast t.fc;
    Mutex.unlock t.fm;
    (* Shutting the listener down (not just closing it) wakes the
       acceptor blocked in [accept]. *)
    (try Unix.shutdown t.listen Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.acceptor;
    t.acceptor <- None;
    (try Unix.close t.listen with Unix.Unix_error _ -> ());
    Array.iter
      (fun shard ->
        Mutex.lock shard.qm;
        shard.stopped <- true;
        Condition.broadcast shard.qc;
        Mutex.unlock shard.qm)
      t.shards;
    Array.iter
      (fun shard ->
        Option.iter Domain.join shard.domain;
        shard.domain <- None)
      t.shards;
    Option.iter Group_commit.stop t.writer;
    Tenant.stop t.tenants;
    Option.iter Thread.join t.ticker;
    t.ticker <- None
  end

let batch_stats t = Option.map Group_commit.stats t.writer

(* --- The serving driver ------------------------------------------------------------ *)

let report_recovery dir (recovery : Store.recovery) replay_errors =
  let damage_fields (d : Store.damage) =
    [
      ("file", Trace.String d.Store.file);
      ("offset", Trace.Int d.Store.offset);
      ("reason", Trace.String d.Store.reason);
    ]
  in
  Option.iter
    (fun d -> Log.warn "store.torn_tail" ~fields:(damage_fields d))
    recovery.Store.truncated;
  List.iter
    (fun d ->
      Log.error "store.damage"
        ~fields:
          (damage_fields d
          @ [
              ( "hint",
                Trace.String
                  (Printf.sprintf
                     "replay stopped there; run `pet store verify %s`" dir) );
            ]))
    recovery.Store.damage;
  Log.info "store.recovered"
    ~fields:
      ([
         ("events", Trace.Int (List.length recovery.Store.events));
         ("files", Trace.Int recovery.Store.files);
       ]
      @
      if replay_errors > 0 then [ ("replay_errors", Trace.Int replay_errors) ]
      else [])

(* Open the journal in [dir] and tee structured log lines into it,
   alongside the default standard-error sink. *)
let open_journal dir =
  Result.map
    (fun log ->
      let j = { log; enc = Flight.create () } in
      Log.set_sink (fun line ->
          prerr_endline line;
          journal_append j (Flight.log_event j.enc ~now:(Obs.now ()) line));
      j)
    (Flight_log.open_dir dir)

(* The inline transport: stdin lines answered on the calling domain,
   one response line each on stdout. A watch line takes over the
   stream: the same request line is re-dispatched once per frame (each
   a full snapshot — clients diff consecutive frames), so the response
   bytes for everything else are untouched; [frames = 0] streams until
   stdin closes, like the TCP transport. After each request come the
   per-request chores: a flight snapshot every 32 requests, the
   [metrics_interval] heartbeat and the compaction check. *)
let serve_inline service ~store ~journal ~metrics_interval ~now =
  let answer line =
    print_endline (Service.handle_line service line);
    flush stdout
  in
  let rec loop handled =
    match In_channel.input_line stdin with
    | None -> ()
    | Some line when String.trim line = "" -> loop handled
    | Some line ->
      (match Proto.watch_request line with
      | Some (interval, frames) ->
        let rec stream i =
          if frames = 0 || i < frames then begin
            answer line;
            if interval > 0. then Unix.sleepf interval;
            stream (i + 1)
          end
        in
        stream 0
      | None -> answer line);
      let handled = handled + 1 in
      Option.iter
        (fun j ->
          if handled mod 32 = 0 then
            journal_append j (snap_record j ~now ~store service))
        journal;
      if metrics_interval > 0 && handled mod metrics_interval = 0 then begin
        Service.sync_gauges service;
        Log.info "metrics.snapshot"
          ~fields:
            [ ("line", Trace.String (Pet_obs.Export.line (Obs.snapshot ()))) ]
      end;
      Option.iter
        (fun store ->
          if Store.wants_compaction store then
            match Store.compact store ~events:(Service.state_events service) with
            | Ok _ -> ()
            | Error m ->
              Log.error "store.compaction_failed"
                ~fields:[ ("reason", Trace.String m) ])
        store;
      loop handled
  in
  loop 0

let serve ?backend ?compiled ?payoff ?capacity ?ttl ?(tenant_quota = 0)
    ?resolve ?data_dir ?(fsync = true) ?(flight = false)
    ?(metrics_interval = 0) ?(sweep_interval = 1.) ~now transport =
  let ( let* ) = Result.bind in
  let* store, events, report =
    match data_dir with
    | None -> Ok (None, [], ignore)
    | Some dir -> (
      match Store.open_dir ~fsync dir with
      | Error m -> Error (Printf.sprintf "--data-dir %s: %s" dir m)
      | Ok (store, recovery) ->
        Ok (Some store, recovery.Store.events, report_recovery dir recovery))
  in
  let close_store () = Option.iter Store.close store in
  let tenants = Tenant.create ~quota:tenant_quota () in
  let services =
    create_services ?backend ?compiled ?payoff ?capacity ?ttl ?resolve
      ~tenants ~durable:(store <> None) ~now transport
  in
  recover ~report services events;
  let* journal =
    match data_dir with
    | Some dir when flight -> (
      match open_journal dir with
      | Ok j -> Ok (Some j)
      | Error m ->
        close_store ();
        Error (Printf.sprintf "--flight: %s" m))
    | _ -> Ok None
  in
  let started fields =
    Option.iter
      (fun j ->
        journal_append j
          (Flight.meta j.enc ~now:(Obs.now ()) ~event:"start" fields))
      journal
  in
  (* The exit dump: a final snapshot, the slow traces not yet journaled,
     the exit mark. Over TCP it runs after [stop], once the shard
     domains are joined, so syncing service 0's gauges is race-free. *)
  let finish result =
    Option.iter
      (fun j ->
        journal_append j (snap_record j ~now ~store services.(0));
        List.iter (journal_append j)
          (Flight.slow_traces j.enc ~now:(Obs.now ()) (Trace.slow ()));
        journal_append j (Flight.meta j.enc ~now:(Obs.now ()) ~event:"exit" []);
        Log.set_sink prerr_endline;
        Flight_log.close j.log)
      journal;
    Tenant.stop tenants;
    close_store ();
    result
  in
  match transport with
  | Stdio ->
    (* Attached after recovery, so replayed events are not re-logged. *)
    Option.iter (fun s -> Service.set_sink services.(0) (Store.sink s)) store;
    started [ ("mode", "stdio") ];
    serve_inline services.(0) ~store ~journal ~metrics_interval ~now;
    finish (Ok ())
  | Tcp { port; port_file; _ } -> (
    match
      launch services ~tenants ?store ?journal ~sweep_interval ~port ~now ()
    with
    | Error m -> finish (Error m)
    | Ok t ->
      started
        [
          ("transport", "tcp");
          ("domains", string_of_int (Array.length services));
          ("port", string_of_int t.port);
        ];
      Option.iter
        (fun file ->
          Out_channel.with_open_text file (fun oc ->
              Printf.fprintf oc "%d\n" t.port))
        port_file;
      let result = wait t in
      stop t;
      finish result)
