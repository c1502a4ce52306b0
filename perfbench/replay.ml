(* The traced run: the same generated inputs replayed in process,
   through the public functions `pet serve` calls, each call timed from
   benchmark code. Spans (name, start, end, parent, request id) are
   kept in memory and written out when the run ends.

   Flows are replayed one after another and dealt round-robin to three
   modes, so the archive grows identically under each:
   - A: observability on, every call traced (spans, self times,
     allocation, the per-method figures);
   - B: observability on, calls timed only — A minus B is the tracing
     overhead;
   - C: observability off, calls timed only — B minus C is the cost of
     the server's own metrics and request tracing. *)

module Json = Pet_pet.Json
module Service = Pet_server.Service
module Store = Pet_store.Store
module Persist = Pet_server.Persist

let now = Unix.gettimeofday

(* --- Spans ------------------------------------------------------------------------- *)

type spans = {
  mutable names : string array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;
  mutable reqs : int array;
  mutable n : int;
}

let spans =
  { names = [||]; starts = [||]; stops = [||]; parents = [||]; reqs = [||]; n = 0 }

let grow a fill = Array.append a (Array.make (max 1024 (Array.length a)) fill)

let record name ~parent ~req start stop =
  if spans.n = Array.length spans.names then begin
    spans.names <- grow spans.names "";
    spans.starts <- grow spans.starts 0.;
    spans.stops <- grow spans.stops 0.;
    spans.parents <- grow spans.parents 0;
    spans.reqs <- grow spans.reqs 0
  end;
  let i = spans.n in
  spans.names.(i) <- name;
  spans.starts.(i) <- start;
  spans.stops.(i) <- stop;
  spans.parents.(i) <- parent;
  spans.reqs.(i) <- req;
  spans.n <- i + 1;
  i

(* Child spans (store appends) open while a traced handle_line runs;
   they are linked to it once it closes. *)
let pending_children = ref []
let child_time = ref 0.
let tracing = ref false
let current_req = ref 0

let write_spans file =
  Out_channel.with_open_text file (fun oc ->
      for i = 0 to spans.n - 1 do
        Printf.fprintf oc
          "{\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"req\":%d}\n"
          spans.names.(i) spans.starts.(i) spans.stops.(i) spans.parents.(i)
          spans.reqs.(i)
      done)

(* --- Accumulators --------------------------------------------------------------- *)

type acc = { mutable sum : float; mutable count : int }

let acc () = { sum = 0.; count = 0 }

let add a v =
  a.sum <- a.sum +. v;
  a.count <- a.count + 1

let mean_of a = if a.count = 0 then 0. else a.sum /. float_of_int a.count

let methods =
  [ "new_session"; "get_report"; "choose_option"; "submit_form"; "revoke"; "expire"; "update_rules" ]

(* The methods the in-process TCP pass times; it sends no hot swaps. *)
let net_methods = List.filter (( <> ) "update_rules") methods

type figures = {
  self : (string, acc) Hashtbl.t;  (** mode A self time by method, s *)
  total_a : acc;
  total_b : acc;
  total_c : acc;
  alloc : acc;
  first : acc;
  repeat : acc;
  append : acc;
  mutable appended_bytes : int;
  mutable xs : float list;  (** consent entries tracked *)
  mutable ys : float list;  (** mode A self time, ns *)
  mutable lines : string list;
  mutable active_peak : int;
  mutable tracked : int;
  build : acc;
  swap : acc;
  mutable problems : string list;
}

let figures () =
  let self = Hashtbl.create 8 in
  List.iter (fun m -> Hashtbl.replace self m (acc ())) methods;
  {
    self;
    total_a = acc ();
    total_b = acc ();
    total_c = acc ();
    alloc = acc ();
    first = acc ();
    repeat = acc ();
    append = acc ();
    appended_bytes = 0;
    xs = [];
    ys = [];
    lines = [];
    active_peak = 0;
    tracked = 0;
    build = acc ();
    swap = acc ();
    problems = [];
  }

let problem fig m = fig.problems <- m :: fig.problems

(* A sink that times every append as a child span of the request that
   emitted it and measures the bytes it added to the log. *)
let timing_sink fig store =
  let inner = Store.sink store in
  {
    Persist.emit =
      (fun event ->
        let file0, off0 = Store.position store in
        let t0 = now () in
        inner.Persist.emit event;
        let t1 = now () in
        let file1, off1 = Store.position store in
        fig.appended_bytes <- (fig.appended_bytes + if file0 = file1 then off1 - off0 else off1);
        add fig.append (t1 -. t0);
        if !tracing then begin
          child_time := !child_time +. (t1 -. t0);
          pending_children := (t0, t1) :: !pending_children
        end);
  }

let set_obs on =
  if on then begin
    Pet_obs.Metrics.enable ();
    Pet_obs.Trace.enable ()
  end
  else begin
    Pet_obs.Metrics.disable ();
    Pet_obs.Trace.disable ()
  end

let serve_config () =
  Pet_obs.Metrics.set_clock Unix.gettimeofday;
  set_obs true

let resolve name = if name = "hcov" then Some (Lazy.force Plan.hcov_text) else None

(* One request in mode [mode] ('A', 'B' or 'C'). *)
let call fig svc ~mode ~meth line =
  fig.lines <- line :: fig.lines;
  incr current_req;
  match mode with
  | 'A' ->
    tracing := true;
    child_time := 0.;
    pending_children := [];
    let g0 = Gc.minor_words () in
    let t0 = now () in
    let response = Service.handle_line svc line in
    let t1 = now () in
    let g1 = Gc.minor_words () in
    tracing := false;
    let parent = record "service.handle_line" ~parent:(-1) ~req:!current_req t0 t1 in
    List.iter
      (fun (s, e) -> ignore (record "store.append" ~parent ~req:!current_req s e))
      !pending_children;
    let self = t1 -. t0 -. !child_time in
    add (Hashtbl.find fig.self meth) self;
    add fig.total_a (t1 -. t0);
    add fig.alloc (g1 -. g0);
    fig.xs <- float_of_int fig.tracked :: fig.xs;
    fig.ys <- (self *. 1e9) :: fig.ys;
    (response, self)
  | _ ->
    let t0 = now () in
    let response = Service.handle_line svc line in
    let t1 = now () in
    add (if mode = 'B' then fig.total_b else fig.total_c) (t1 -. t0);
    (response, t1 -. t0)

let sample_sessions fig svc =
  let c = Service.session_counters svc in
  fig.active_peak <- max fig.active_peak c.Pet_server.Session.active

(* Replay one flow, noting any reply that is not the expected one.
   Ineligible answers end a corpus flow, as in the untraced run. *)
let flow fig svc (plan : Plan.t) seen ~mode (f : Plan.flow) =
  set_obs (mode <> 'C');
  let session = ref "" and option = ref 0 in
  let rec go k =
    if k < Array.length f.Plan.steps then begin
      let step = f.Plan.steps.(k) in
      let line = Plan.line ~id:!current_req ~session:!session ~option:!option step in
      let meth = Plan.method_of step in
      let response, self = call fig svc ~mode ~meth line in
      if !current_req land 63 = 0 then sample_sessions fig svc;
      let ok = Reply.is_ok response in
      (match step with
      | Plan.Get_report { key; valuation } ->
        let pair = key ^ "/" ^ valuation in
        if mode = 'A' then add (if Hashtbl.mem seen pair then fig.repeat else fig.first) self;
        Hashtbl.replace seen pair ()
      | Plan.Submit when ok -> fig.tracked <- fig.tracked + 1
      | _ -> ());
      if ok then begin
        (match step with
        | Plan.Open_digest _ | Plan.Open_tenant _ ->
          session := Option.value ~default:"" (Reply.string_field response "session")
        | Plan.Get_report { valuation; _ } ->
          option := Reply.recommended response;
          (match Hashtbl.find_opt plan.Plan.oracle valuation with
          | Some expected when Reply.payload response <> expected ->
            problem fig "replayed get_report differs from the oracle"
          | _ -> ())
        | _ -> ());
        go (k + 1)
      end
      else
        match step with
        | Plan.Get_report _
          when plan.Plan.ineligible_ok && Reply.error_code response = "ineligible" -> ()
        | _ -> problem fig ("replayed request failed: " ^ response)
    end
  in
  go 0;
  set_obs true

let checked fig what response =
  if not (Reply.is_ok response) then problem fig (what ^ " failed: " ^ response);
  response

let publish_hcov fig svc =
  ignore (checked fig "publish" (Service.handle_line svc (E2e.publish_hcov ())))

let mode_of i = match i mod 3 with 0 -> 'A' | 1 -> 'B' | _ -> 'C'

(* --- Per-workload replays ------------------------------------------------------- *)

let stdio_hcov fig (plan : Plan.t) =
  let svc = Service.create ~capacity:16 ~ttl:3600. ~resolve ~now () in
  publish_hcov fig svc;
  let seen = Hashtbl.create 4096 in
  Array.iteri (fun i f -> flow fig svc plan seen ~mode:(mode_of i) f) plan.Plan.flows;
  sample_sessions fig svc;
  svc

(* Four slices of the flows run over a growing archive — none of it,
   then a third, two thirds and all of it — so handle_line time is
   sampled across the whole range of archive sizes the per-grant slope
   needs. *)
let tcp_durable fig (plan : Plan.t) ~dir =
  Proc.fresh_dir dir;
  let store =
    match Store.open_dir ~fsync:false dir with Ok (s, _) -> s | Error m -> failwith m
  in
  let shared = Pet_server.Shared.create () in
  let svc = Service.create ~capacity:16 ~ttl:3600. ~resolve ~shared ~durable:true ~now () in
  let apply events =
    Store.append_batch store events;
    List.iter
      (fun e ->
        match Service.apply_event svc e with
        | Ok () -> ()
        | Error m -> problem fig ("preload replay: " ^ m))
      events
  in
  apply [ Plan.rules_event () ];
  Service.set_sink svc (timing_sink fig store);
  publish_hcov fig svc;
  let seen = Hashtbl.create 4096 in
  let nflows = Array.length plan.Plan.flows in
  let stamp = now () in
  for s = 0 to 3 do
    if s > 0 then begin
      let lo = (s - 1) * plan.Plan.preload / 3 and hi = s * plan.Plan.preload / 3 in
      apply
        (Plan.preload_events ~grant_base:fig.tracked ~seed:plan.Plan.seed ~count:(hi - lo)
           ~first:lo ~now:stamp ());
      fig.tracked <- fig.tracked + (hi - lo)
    end;
    let f0 = s * nflows / 4 and f1 = (s + 1) * nflows / 4 in
    Array.iteri
      (fun i f -> flow fig svc plan seen ~mode:(mode_of (f0 + i)) f)
      (Array.sub plan.Plan.flows f0 (f1 - f0))
  done;
  sample_sessions fig svc;
  let c = Pet_server.Consent.counters (Pet_server.Shared.consents shared) in
  if c.Pet_server.Consent.tracked <> fig.tracked then
    problem fig
      (Printf.sprintf "consent registry tracks %d entries, expected %d"
         c.Pet_server.Consent.tracked fig.tracked);
  Store.close store;
  svc

let tenants_open fig (plan : Plan.t) ~dir =
  Proc.fresh_dir dir;
  let store =
    match Store.open_dir ~fsync:false dir with Ok (s, _) -> s | Error m -> failwith m
  in
  let svc = Service.create ~capacity:16 ~ttl:3600. ~resolve ~durable:true ~now () in
  Service.set_sink svc (timing_sink fig store);
  let wait name =
    Service.handle_line svc (Plan.wait_line ~id:0 ~tenant:name)
  in
  Array.iter
    (fun (t : Plan.tenant) ->
      let t0 = now () in
      ignore
        (checked fig "publish"
           (Service.handle_line svc
              (Plan.publish_line ~id:0 ~tenant:t.Plan.name ~rules:t.Plan.text)));
      ignore (checked fig "tenant wait" (wait t.Plan.name));
      add fig.build (now () -. t0))
    plan.Plan.tenants;
  let seen = Hashtbl.create 4096 in
  let swaps = plan.Plan.swaps in
  let next_swap = ref 0 in
  Array.iteri
    (fun i (f : Plan.flow) ->
      while !next_swap < Array.length swaps && swaps.(!next_swap).Plan.swap_at <= f.Plan.at do
        let s = swaps.(!next_swap) in
        incr next_swap;
        let t0 = now () in
        let line = Plan.update_line ~id:0 ~tenant:s.Plan.tenant ~rules:s.Plan.rules in
        let response, _ = call fig svc ~mode:'A' ~meth:"update_rules" line in
        let version = Reply.payload (checked fig "update_rules" response) in
        let info = checked fig "tenant wait" (wait s.Plan.tenant) in
        add fig.swap (now () -. t0);
        let field k s = Json.member k (Result.get_ok (Json.parse s)) in
        if field "version" version <> field "active" (Reply.payload info) then
          problem fig "hot swap did not activate the new version"
      done;
      flow fig svc plan seen ~mode:(mode_of i) f)
    plan.Plan.flows;
  sample_sessions fig svc;
  Store.close store;
  Service.shutdown svc;
  svc

(* --- Layer measurements outside the request path ------------------------------ *)

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let decode_pass lines =
  let fast = ref 0 in
  let n = List.length lines in
  let (), dt =
    time (fun () ->
        List.iter
          (fun line ->
            match Pet_server.Proto.decode_fast line with
            | Some _ -> incr fast
            | None -> ignore (Pet_server.Proto.decode line))
          lines)
  in
  (dt *. 1e6 /. float_of_int (max 1 n), float_of_int !fast /. float_of_int (max 1 n))

(* Engine, atlas and strategy build time per workload form, and the
   report build per distinct valuation on those providers. *)
let provider_pass (plan : Plan.t) =
  let forms =
    if Array.length plan.Plan.tenants = 0 then [ ("hcov", Lazy.force Plan.hcov) ]
    else
      Array.to_list
        (Array.map
           (fun (t : Plan.tenant) ->
             (t.Plan.name, Result.get_ok (Pet_rules.Spec.parse t.Plan.text)))
           plan.Plan.tenants)
  in
  let engine = acc () and atlas = acc () and strategy = acc () and report = acc () in
  let providers = Hashtbl.create 256 in
  List.iter
    (fun (name, exposure) ->
      let e, de = time (fun () -> Pet_rules.Engine.create ~backend:Pet_rules.Engine.Compiled exposure) in
      let a, da = time (fun () -> Pet_minimize.Atlas.build e) in
      let _, ds = time (fun () -> Pet_game.Strategy.compute a) in
      add engine de;
      add atlas da;
      add strategy ds;
      Hashtbl.replace providers name exposure)
    forms;
  let built = Hashtbl.create 256 in
  let provider key =
    match Hashtbl.find_opt built key with
    | Some p -> p
    | None ->
      let exposure =
        match Hashtbl.find_opt providers key with
        | Some e -> e
        | None -> Lazy.force Plan.hcov
      in
      let p = Pet_pet.Workflow.provider ~backend:Pet_rules.Engine.Compiled exposure in
      Hashtbl.replace built key p;
      p
  in
  let distinct = Hashtbl.create 4096 in
  Array.iter
    (fun (f : Plan.flow) ->
      Array.iter
        (function
          | Plan.Get_report { key; valuation } -> Hashtbl.replace distinct (key, valuation) ()
          | _ -> ())
        f.Plan.steps)
    plan.Plan.flows;
  Hashtbl.iter
    (fun (key, valuation) () ->
      let key = if Hashtbl.mem providers key then key else "hcov" in
      let p = provider key in
      let exposure = Pet_rules.Engine.exposure (Pet_pet.Workflow.engine p) in
      let v = Pet_valuation.Total.of_string (Pet_rules.Exposure.xp exposure) valuation in
      let t0 = now () in
      match Pet_pet.Workflow.report_for p v with
      | Ok r ->
        ignore (Json.to_string (Pet_pet.Report.to_json r));
        add report (now () -. t0)
      | Error _ -> ())
    distinct;
  (mean_of engine *. 1e3, mean_of atlas *. 1e3, mean_of strategy *. 1e3, mean_of report *. 1e6)

let repeat_ratio (plan : Plan.t) =
  let seen = Hashtbl.create 4096 and repeats = ref 0 and total = ref 0 in
  Array.iter
    (fun (f : Plan.flow) ->
      Array.iter
        (function
          | Plan.Get_report { key; valuation } ->
            incr total;
            if Hashtbl.mem seen (key, valuation) then incr repeats
            else Hashtbl.replace seen (key, valuation) ()
          | _ -> ())
        f.Plan.steps)
    plan.Plan.flows;
  float_of_int !repeats /. float_of_int (max 1 !total)

(* Store.read plus Service.apply_event over the final directory. *)
let recovery_pass fig (plan : Plan.t) dir =
  let recovery, read_s =
    time (fun () -> match Store.read dir with Ok r -> r | Error m -> failwith m)
  in
  let shared = if plan.Plan.workload = "tcp-durable" then Some (Pet_server.Shared.create ()) else None in
  let svc = Service.create ~capacity:16 ~ttl:3600. ~resolve ?shared ~durable:true ~now () in
  let (), replay_s =
    time (fun () ->
        List.iter
          (fun e ->
            match Service.apply_event svc e with
            | Ok () -> ()
            | Error m -> problem fig ("recovery replay: " ^ m))
          recovery.Store.events)
  in
  Service.shutdown svc;
  let report, audit_s =
    time (fun () -> match Pet_audit.Audit.run dir with Ok r -> r | Error m -> failwith m)
  in
  if not (Pet_audit.Audit.pass report) then problem fig "in-process audit failed";
  (read_s *. 1e3, replay_s *. 1e3, float_of_int report.Pet_audit.Audit.records /. audit_s)

(* Group commit and the TCP transport, against an in-process
   Pet_net.Server over the preloaded archive: half the flows, the same
   connection and respondent counts and store settings (no fsync) as
   the untraced run. *)
let net_pass fig (plan : Plan.t) ~dir =
  Proc.fresh_dir dir;
  Plan.write_preload plan dir;
  let store, recovery =
    match Store.open_dir ~fsync:false dir with Ok r -> r | Error m -> failwith m
  in
  let server =
    match
      Pet_net.Server.start ~resolve ~store ~recovery:recovery.Store.events ~domains:1
        ~port:0 ~now ()
    with
    | Ok s -> s
    | Error m -> failwith m
  in
  let conns = Array.init 2 (fun _ -> Proc.connect (Pet_net.Server.port server)) in
  let counters () =
    let m =
      E2e.payload_json
        (checked fig "metrics" (Option.get (Conn.call conns.(0) (Plan.simple_line ~id:0 "metrics"))))
    in
    ( E2e.num [ "counters"; "pet_net_commit_batches_total" ] m,
      E2e.num [ "counters"; "pet_net_commit_events_total" ] m )
  in
  ignore (checked fig "publish" (Option.get (Conn.call conns.(0) (E2e.publish_hcov ()))));
  let stats0 = Option.get (Pet_net.Server.batch_stats server) in
  let b0, e0 = counters () in
  let sub = { plan with Plan.flows = Array.sub plan.Plan.flows 0 (Array.length plan.Plan.flows / 2) } in
  let r = Load.run sub conns (Load.Closed 16) in
  let b1, e1 = counters () in
  let stats1 = Option.get (Pet_net.Server.batch_stats server) in
  let _, _, _, _, problems = E2e.verify sub r in
  List.iter (problem fig) problems;
  Array.iter (fun c -> Proc.close_quietly c.Conn.rfd) conns;
  Pet_net.Server.stop server;
  Store.close store;
  let batches = stats1.Pet_net.Group_commit.batches - stats0.Pet_net.Group_commit.batches in
  let events = stats1.Pet_net.Group_commit.events - stats0.Pet_net.Group_commit.events in
  if float_of_int batches <> b1 -. b0 || float_of_int events <> e1 -. e0 then
    problem fig "group-commit totals disagree with the pet_net_commit counters";
  let rt = Hashtbl.create 8 in
  for i = 0 to r.Load.sent - 1 do
    let f = r.Load.flow_of.(i) in
    let m = Plan.method_of sub.Plan.flows.(f).Plan.steps.(r.Load.step_of.(i)) in
    let a = match Hashtbl.find_opt rt m with Some a -> a | None -> let a = acc () in Hashtbl.add rt m a; a in
    add a r.Load.latency.(i)
  done;
  (batches, events, rt)

(* Store.append_batch on batches of the observed size, with fsync. *)
let fsync_pass ~dir ~batch =
  Proc.fresh_dir dir;
  let store = match Store.open_dir ~fsync:true dir with Ok (s, _) -> s | Error m -> failwith m in
  let events =
    Plan.preload_events ~seed:0 ~count:(max 1 ((batch + 3) / 4)) ~first:0 ~now:(now ()) ()
  in
  let events = List.filteri (fun i _ -> i < max 1 batch) events in
  let times = Array.init 64 (fun _ -> snd (time (fun () -> Store.append_batch store events))) in
  Store.close store;
  Stats.median times *. 1e3
