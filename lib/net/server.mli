(** The serving driver of the collection service, and its TCP front.

    One driver ({!serve}) owns the serving lifecycle for both
    transports: it opens the store and reports what recovery found
    ([store.torn_tail], [store.damage], [store.recovered] with any
    [replay_errors]), replays the recovered events into the services
    (routed by {!Shard_map}), applies expiry horizons that passed while
    the process was down ([store.horizons_applied]), attaches the WAL
    sink, opens the flight journal with its log tee (one encoder per
    journal, so [seq] is gap-free; every record stamped with the obs
    clock), writes the start and exit records, and closes the journal
    and the store and stops the tenant registry on the way out.

    The two transports differ only in how requests reach a service:
    - {!Stdio} is the one-connection, one-shard case, served inline on
      the calling domain — no shard domain, no queue, no writer domain,
      a synchronous {!Pet_store.Store.sink}. Watch re-dispatch, a
      flight snapshot every 32 requests, the metrics heartbeat and the
      store's compaction check run after each request. It stays inline
      because routing it through a one-shard queue measured +23% server
      CPU per request on the stdio H-cov benchmark, at equal throughput.
    - {!Tcp} spreads [domains] shards over OCaml domains. Each shard
      owns a disjoint slice of the session space ({!Shard_map} decides
      ownership from the id alone), runs its own [Service.t] with no
      locking, and funnels its durable events through the single
      {!Group_commit} writer domain. Connection handling stays on the
      main domain as plain threads: a reader thread per connection
      parses nothing, routes each request line to its shard
      (round-robin when the line names no session) and moves on to the
      next line; the shard writes the response back to the socket
      itself once the request's events are committed. A connection
      that pipelines requests may therefore see responses out of order
      when they land on different shards — the echoed ["id"] correlates
      them; a client that waits for each response before sending the
      next sees strict ordering. A durable TCP server never compacts
      its WAL in process (that needs a quiescent point across shards):
      run [pet store compact] with the server stopped.

    Replies are durable-before-reply on both transports: a request
    whose handling emitted WAL events is only acknowledged after they
    are on disk.

    Over TCP, rule-set texts and grant ledgers are shared across shards
    (see {!Pet_server.Shared}); compiled engines are not — each shard
    recompiles from the shared canonical text on first use, so BDD
    memo tables are never touched by two domains. Raw valuations never
    cross a domain boundary: they live inside the owning shard's
    session and only the chosen option's digested grant reaches the
    shared ledger or the wire. *)

type transport =
  | Stdio
  | Tcp of { port : int; domains : int; port_file : string option }
      (** Bind [127.0.0.1:port] ([0] picks an ephemeral port) with
          [domains] shards, and write the bound port (one decimal line)
          to [port_file] once listening. *)

val serve :
  ?backend:Pet_rules.Engine.backend ->
  ?compiled:bool ->
  ?payoff:Pet_game.Payoff.kind ->
  ?capacity:int ->
  ?ttl:float ->
  ?tenant_quota:int ->
  ?resolve:(string -> string option) ->
  ?data_dir:string ->
  ?fsync:bool ->
  ?flight:bool ->
  ?metrics_interval:int ->
  ?sweep_interval:float ->
  now:(unit -> float) ->
  transport ->
  (unit, string) result
(** Run [pet serve] until standard input closes ({!Stdio}) or a fatal
    write-ahead-log failure ({!Tcp}: [Error reason]). The service
    settings are forwarded to every {!Pet_server.Service.create}.
    [data_dir] makes the service durable ([fsync], default [true],
    fsyncs each commit); [flight] (default [false], needs [data_dir])
    journals telemetry beside the WAL. [metrics_interval] (default 0,
    off) logs a [metrics.snapshot] line every that many requests and
    [sweep_interval] (default 1 s; [<= 0.] disables it, for
    deterministic clocks) paces the TCP sweep ticker: each applies to
    its own transport only. [Error] also when the store, the journal
    or the socket cannot be opened. *)

type t

val start :
  ?backend:Pet_rules.Engine.backend ->
  ?compiled:bool ->
  ?payoff:Pet_game.Payoff.kind ->
  ?capacity:int ->
  ?ttl:float ->
  ?tenant_quota:int ->
  ?resolve:(string -> string option) ->
  ?store:Pet_store.Store.t ->
  ?recovery:Pet_server.Persist.event list ->
  ?sweep_interval:float ->
  ?flight:Pet_store.Flight_log.t ->
  domains:int ->
  port:int ->
  now:(unit -> float) ->
  unit ->
  (t, string) result
(** The TCP transport alone, without the driver's store and journal
    lifecycle — for in-process tests and benchmarks; {!serve} is the
    full server. Bind [127.0.0.1:port] ([port = 0] picks an ephemeral
    port — read it back with {!port}). [backend] and [compiled] are
    forwarded to every per-shard {!Pet_server.Service.create}, so the
    compiled fast path's answer tables are per-shard, like the engines
    (they memoize rendered responses and are never shared across
    domains). Replay [recovery] into the owning shards and apply passed
    horizons, exactly as {!serve} does, then spawn the shard domains,
    the writer domain (when [store] is given), the acceptor thread and
    the sweep ticker ([sweep_interval <= 0.] disables it; use with
    deterministic clocks). The caller keeps ownership of [store] and
    closes it after {!stop}. [Error] only on socket failures; replay
    errors are logged and skipped.

    Every shard shares one process-wide tenant registry (default
    per-tenant session cap [tenant_quota], 0 = unlimited), so a tenant
    published through any connection is servable on every shard; its
    background builder domain is stopped by {!stop}. [watch]
    subscriptions stream frames without touching non-watch traffic
    (their lines are intercepted on the connection thread by a
    substring scan + full decode; everything else is forwarded
    byte-identically).

    [flight] attaches a flight journal with a fresh encoder: the sweep
    ticker also enqueues one snapshot per interval (assembled on shard
    0, stamped with the {!Pet_store.Store.position} WAL frontier,
    journaled by the writer domain via {!Group_commit.submit_flight}),
    and a fatal WAL failure writes its reason to the journal directly.
    Lifecycle records are {!serve}'s; the caller owns and closes the
    journal after {!stop}. *)

val port : t -> int
(** The bound port (useful with [port:0]). *)

val stop : t -> unit
(** Wake the acceptor, drain and join the shard domains, stop the
    writer (committing anything queued), join the ticker. Idempotent.
    Connections still open are not waited for; their threads die with
    the process or on the next client read. *)

val batch_stats : t -> Group_commit.stats option
(** Group-commit totals, [None] when running without a store. *)
