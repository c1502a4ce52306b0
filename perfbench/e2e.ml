(* The untraced run: the real `pet serve` binary as a child process,
   configured as operators run it, driven by the load generator. *)

module Json = Pet_pet.Json

type env = { exe : string; work : string }

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** failed checks, empty when correct *)
  values : (string * float) list;
      (** end-to-end metrics plus the run-level figures the traced
          replay reconciles against, each the median over repetitions *)
}

let log env name = Filename.concat env.work (name ^ ".log")
let setup_id = 10_000_000

let ok_or_fail what = function
  | Some line when Reply.is_ok line -> line
  | Some line -> failwith (Printf.sprintf "%s failed: %s" what line)
  | None -> failwith (what ^ ": no reply")

let payload_json line =
  match Json.parse (Reply.payload line) with
  | Ok j -> j
  | Error m -> failwith ("unparsable reply: " ^ m)

let member path j =
  List.fold_left
    (fun acc k -> Option.bind acc (Json.member k))
    (Some j) path

let num path j =
  match member path j with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> Float.nan

let call conn line = ok_or_fail "exchange" (Conn.call conn line)
let metrics conn = payload_json (call conn (Plan.simple_line ~id:(setup_id + 1) "metrics"))
let stats conn = payload_json (call conn (Plan.simple_line ~id:(setup_id + 2) "stats"))

(* --- Set-up, one per workload ---------------------------------------------------
   Each returns the server, the connections the load runs on, and the
   seconds from spawning the server to the first flow being able to
   start. *)

let publish_hcov () =
  Printf.sprintf {|{"pet":1,"id":%d,"method":"publish_rules","params":{"source":"hcov"}}|}
    setup_id

let setup_stdio_hcov env =
  let t0 = Unix.gettimeofday () in
  let p = Proc.spawn ~exe:env.exe ~args:[ "serve"; "--stdio" ] ~log:(log env "server") in
  ignore (call p.Proc.conn (publish_hcov ()));
  (p, [| p.Proc.conn |], Unix.gettimeofday () -. t0)

let data_dir env = Filename.concat env.work "data"

let setup_tenants env (plan : Plan.t) =
  let dir = data_dir env in
  Proc.fresh_dir dir;
  let t0 = Unix.gettimeofday () in
  let p =
    Proc.spawn ~exe:env.exe
      ~args:[ "serve"; "--stdio"; "--data-dir"; dir; "--no-fsync" ]
      ~log:(log env "server")
  in
  let c = p.Proc.conn in
  Array.iteri
    (fun i (t : Plan.tenant) ->
      Conn.send c (Plan.publish_line ~id:(setup_id + i) ~tenant:t.Plan.name ~rules:t.Plan.text))
    plan.Plan.tenants;
  Array.iteri
    (fun i (t : Plan.tenant) -> Conn.send c (Plan.wait_line ~id:(setup_id + i) ~tenant:t.Plan.name))
    plan.Plan.tenants;
  (match Conn.recv_lines c (2 * Array.length plan.Plan.tenants) with
  | Some lines -> List.iter (fun l -> ignore (ok_or_fail "tenant setup" (Some l))) lines
  | None -> failwith "tenant setup: no reply");
  (p, [| c |], Unix.gettimeofday () -. t0)

(* No fsync: on a shared host the disk's fsync latency drifts from run
   to run and set throughput and p50 here, so they measured the disk,
   not the server. The WAL append, the group-commit writer and the
   consent registry stay on the request path; the traced run times
   fsync on its own (group_commit.fsync_batch_ms). *)
let tcp_args env =
  [
    "serve"; "--tcp"; "0"; "--domains"; "1"; "--no-fsync"; "--data-dir"; data_dir env;
    "--port-file"; Filename.concat env.work "port";
  ]

let start_tcp env =
  let port_file = Filename.concat env.work "port" in
  (try Sys.remove port_file with Sys_error _ -> ());
  let t0 = Unix.gettimeofday () in
  let p = Proc.spawn ~exe:env.exe ~args:(tcp_args env) ~log:(log env "server") in
  match Proc.wait_port port_file with
  | None ->
    Proc.kill9 p;
    failwith "tcp server did not start"
  | Some port ->
    let conns = Array.init 2 (fun _ -> Proc.connect port) in
    ignore (call conns.(0) (publish_hcov ()));
    (p, conns, Unix.gettimeofday () -. t0)

let close_conns conns = Array.iter (fun c -> Proc.close_quietly c.Conn.rfd) conns

let setup env (plan : Plan.t) =
  match plan.Plan.workload with
  | "stdio-hcov" -> setup_stdio_hcov env
  | "tenants-open" -> setup_tenants env plan
  | _ -> start_tcp env

(* --- Output checks (outside the timed window) --------------------------------- *)

let verify (plan : Plan.t) (r : Load.run) =
  let failed = ref 0 and ok = ref 0 and ineligible = ref 0 and mismatched = ref 0 in
  let submitted = ref 0 in
  for i = 0 to r.Load.sent - 1 do
    let line = r.Load.replies.(i) in
    let f = r.Load.flow_of.(i) in
    let step = if f >= 0 then Some plan.Plan.flows.(f).Plan.steps.(r.Load.step_of.(i)) else None in
    if line = "" then incr failed
    else if Reply.is_ok line then begin
      incr ok;
      match step with
      | Some (Plan.Get_report { valuation; _ }) when Hashtbl.length plan.Plan.oracle > 0 ->
        if Reply.payload line <> Hashtbl.find plan.Plan.oracle valuation then begin
          incr mismatched;
          incr failed
        end
      | Some Plan.Submit -> incr submitted
      | _ -> ()
    end
    else
      match step with
      | Some (Plan.Get_report _)
        when plan.Plan.ineligible_ok && Reply.error_code line = "ineligible" ->
        incr ineligible
      | _ -> incr failed
  done;
  let problems =
    (if !mismatched > 0 then
       [ Printf.sprintf "%d get_report payloads differ from the oracle" !mismatched ]
     else [])
    @ (if !failed > !mismatched then
         [ Printf.sprintf "%d requests failed or went unanswered" (!failed - !mismatched) ]
       else [])
    @ if r.Load.timed_out then [ "the run did not finish" ] else []
  in
  (!ok, !ineligible, !failed, !submitted, problems)

(* --- The run ---------------------------------------------------------------------- *)

let gc_counts conn =
  let m = metrics conn in
  ( num [ "gauges"; "pet_gc_minor_collections" ] m,
    num [ "gauges"; "pet_gc_major_collections" ] m )

(* Repetitions per run, each on a fresh server with the same inputs;
   every metric but the tail latencies is the median over them. On a
   shared host the speed drifts by tens of percent, and the median of
   several short repetitions rides out drift of a few seconds better
   than one long window; drift that lasts minutes it cannot. *)
let reps = function "stdio-hcov" -> 15 | "tenants-open" -> 3 | _ -> 7

let preload_dir env = Filename.concat env.work "preload"

(* One repetition: set up, drive the timed window, check the outputs. *)
let rep env (plan : Plan.t) =
  let durable = plan.Plan.workload <> "stdio-hcov" in
  if plan.Plan.workload = "tcp-durable" then Proc.copy_dir (preload_dir env) (data_dir env);
  let p, conns, setup_s = setup env plan in
  let pid = p.Proc.pid in
  let wal0 = if durable then Proc.dir_bytes (data_dir env) else 0 in
  let minor0, major0 = gc_counts conns.(0) in
  let cpu0 = Proc.cpu_seconds pid in
  let mode =
    match plan.Plan.workload with
    | "stdio-hcov" -> Load.Closed 8
    | "tcp-durable" -> Load.Closed 16
    | _ -> Load.Open
  in
  let r = Load.run plan conns mode in
  let cpu1 = Proc.cpu_seconds pid in
  let minor1, major1 = gc_counts conns.(0) in
  let rss = Proc.peak_rss_mb pid in
  let wal1 = if durable then Proc.dir_bytes (data_dir env) else 0 in
  let ok, ineligible, failed, submitted, problems = verify plan r in
  let extra_problems = ref [] in
  (match plan.Plan.workload with
  | "tcp-durable" ->
    (* Crash, restart, and check that every acknowledged grant
       survived next to the preloaded archive. *)
    close_conns conns;
    Proc.kill9 p;
    let p2, conns2, _ = start_tcp env in
    let records = num [ "ledger"; "records" ] (stats conns2.(0)) in
    let expected = plan.Plan.preload + submitted in
    if records <> float_of_int expected then
      extra_problems :=
        Printf.sprintf "after kill -9 and restart the ledger holds %.0f grants, expected %d"
          records expected
        :: !extra_problems;
    close_conns conns2;
    Proc.kill9 p2
  | _ -> Proc.stop p);
  let audit_s =
    if durable then begin
      let passed, dt = Proc.audit ~exe:env.exe ~log:(log env "audit") (data_dir env) in
      if not passed then
        extra_problems := "pet audit failed on the final data directory" :: !extra_problems;
      dt
    end
    else 0.
  in
  let answered = ok + ineligible in
  let expected_reply line =
    Reply.is_ok line || (plan.Plan.ineligible_ok && Reply.error_code line = "ineligible")
  in
  (* A failed or unanswered request misses every latency limit. *)
  let lat =
    Stats.sorted
      (Array.init r.Load.sent (fun i ->
           if expected_reply r.Load.replies.(i) then r.Load.latency.(i) else Float.infinity))
  in
  let window = r.Load.last_reply -. r.Load.first_send in
  let kreq = float_of_int answered /. 1000. in
  let values =
    [
      ("throughput_rps", float_of_int ok /. window);
      ("latency_p50_ms", 1000. *. Stats.quantile lat 0.5);
      ("setup_s", setup_s);
      ("server_rss_mb", rss);
      ("server_cpu_us_per_req", (cpu1 -. cpu0) *. 1e6 /. float_of_int (max 1 answered));
      ("audit_s", audit_s);
      ("wal_bytes_per_flow", float_of_int (wal1 - wal0) /. float_of_int (max 1 submitted));
      ("gc.minor_per_kreq", (minor1 -. minor0) /. kreq);
      ("gc.major_per_kreq", (major1 -. major0) /. kreq);
      ("generator.late_ms", 1000. *. r.Load.late_max);
    ]
  in
  (r.Load.sent, failed, problems @ List.rev !extra_problems, values, lat)

let run env (plan : Plan.t) =
  if plan.Plan.workload = "tcp-durable" then begin
    Proc.fresh_dir (preload_dir env);
    Plan.write_preload plan (preload_dir env)
  end;
  let results = List.init (reps plan.Plan.workload) (fun _ -> rep env plan) in
  let attempted = max 1 (List.fold_left (fun acc (n, _, _, _, _) -> acc + n) 0 results) in
  let failed = List.fold_left (fun acc (_, f, _, _, _) -> acc + f) 0 results in
  let problems = List.concat_map (fun (_, _, p, _, _) -> p) results in
  let medians =
    List.map
      (fun (name, _) ->
        ( name,
          Stats.median
            (Array.of_list (List.map (fun (_, _, _, v, _) -> List.assoc name v) results)) ))
      (let _, _, _, v, _ = List.hd results in v)
  in
  (* Tail quantiles pool the samples of every repetition: with few
     samples beyond them they are steadier over the pool than as a
     median of per-repetition tails. *)
  let lat = Stats.sorted (Array.concat (List.map (fun (_, _, _, _, l) -> l) results)) in
  let values =
    [
      ("latency_p99_ms", 1000. *. Stats.quantile lat 0.99);
      ( "latency_p999_ms",
        if Array.length lat >= 10_000 then 1000. *. Stats.quantile lat 0.999 else 0. );
    ]
    @ medians
  in
  { attempted; failed = (if problems = [] then failed else attempted); problems; values }
