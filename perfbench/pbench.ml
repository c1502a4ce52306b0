(* pbench: one run of one workload of the end-to-end `pet serve`
   benchmark. With --trace 0 it prints the end-to-end metrics of an
   untraced run through the real binary; with --trace 1 it also replays
   the same inputs in process, traced, and prints the per-layer
   metrics. The last line of standard output is the JSON result; the
   exit code is non-zero when an output check failed. *)

let end_to_end =
  [
    ("throughput_rps", "1/s");
    ("latency_p50_ms", "ms");
    ("setup_s", "s");
    ("server_rss_mb", "MiB");
    ("server_cpu_us_per_req", "us");
  ]

(* The traced replay and the layer passes around it, as (name, unit,
   value); every layer a workload does not exercise reads 0. *)
let layers ~work (plan : Plan.t) (e2e : E2e.outcome) =
  let fig = Replay.figures () in
  Replay.serve_config ();
  let dir name = Filename.concat work name in
  let svc =
    match plan.Plan.workload with
    | "stdio-hcov" -> Replay.stdio_hcov fig plan
    | "tcp-durable" -> Replay.tcp_durable fig plan ~dir:(dir "replay")
    | _ -> Replay.tenants_open fig plan ~dir:(dir "replay")
  in
  Replay.write_spans (dir ("spans-" ^ plan.Plan.workload ^ ".jsonl"));
  let v name = List.assoc name e2e.E2e.values in
  let us a = Replay.mean_of a *. 1e6 in
  let decode_us, fast_ratio = Replay.decode_pass fig.Replay.lines in
  let engine_ms, atlas_ms, strategy_ms, report_us = Replay.provider_pass plan in
  let reg = Pet_server.Service.registry_stats svc in
  let durable = plan.Plan.workload <> "stdio-hcov" in
  let read_ms, replay_ms, records_per_s =
    if durable then Replay.recovery_pass fig plan (dir "replay") else (0., 0., 0.)
  in
  let events_per_batch, batches, fsync_ms, roundtrip =
    if plan.Plan.workload = "tcp-durable" then begin
      let batches, events, rt = Replay.net_pass fig plan ~dir:(dir "net") in
      let per = float_of_int events /. float_of_int (max 1 batches) in
      let fsync = Replay.fsync_pass ~dir:(dir "fsync") ~batch:(int_of_float (Float.round per)) in
      (per, float_of_int batches, fsync, rt)
    end
    else (0., 0., 0., Hashtbl.create 1)
  in
  let lookups = reg.Pet_server.Registry.hits + reg.Pet_server.Registry.misses in
  let values =
    [
      ("driver.us_per_req", "us", v "server_cpu_us_per_req" -. us fig.Replay.total_a);
      ("trace.overhead_us", "us", us fig.Replay.total_a -. us fig.Replay.total_b);
      ("proto.decode_us", "us", decode_us);
      ("proto.fast_ratio", "ratio", fast_ratio);
    ]
    @ List.map
        (fun m -> ("service.handle_us." ^ m, "us", us (Hashtbl.find fig.Replay.self m)))
        Replay.methods
    @ [
        ("service.get_report_first_us", "us", us fig.Replay.first);
        ("service.get_report_repeat_us", "us", us fig.Replay.repeat);
        ("answers.repeat_ratio", "ratio", Replay.repeat_ratio plan);
        ("service.alloc_words_per_req", "words", Replay.mean_of fig.Replay.alloc);
        ( "service.ns_per_archived_grant",
          "ns",
          Stats.slope (Array.of_list fig.Replay.xs) (Array.of_list fig.Replay.ys) );
        ("report.build_us", "us", report_us);
        ("provider.engine_ms", "ms", engine_ms);
        ("provider.atlas_ms", "ms", atlas_ms);
        ("provider.strategy_ms", "ms", strategy_ms);
        ( "registry.hit_ratio",
          "ratio",
          float_of_int reg.Pet_server.Registry.hits /. float_of_int (max 1 lookups) );
        ("registry.evictions", "count", float_of_int reg.Pet_server.Registry.evictions);
        ("tenant.build_ms", "ms", Replay.mean_of fig.Replay.build *. 1e3);
        ("tenant.swap_ms", "ms", Replay.mean_of fig.Replay.swap *. 1e3);
        ("session.active_peak", "count", float_of_int fig.Replay.active_peak);
        ("consent.tracked", "count", float_of_int fig.Replay.tracked);
        ("store.append_us", "us", us fig.Replay.append);
        ( "store.bytes_per_event",
          "bytes",
          float_of_int fig.Replay.appended_bytes
          /. float_of_int (max 1 fig.Replay.append.Replay.count) );
        ("store.read_ms", "ms", read_ms);
        ("store.replay_ms", "ms", replay_ms);
        ("group_commit.events_per_batch", "count", events_per_batch);
        ("group_commit.batches", "count", batches);
        ("group_commit.fsync_batch_ms", "ms", fsync_ms);
      ]
    @ List.map
        (fun m ->
          ( "net.roundtrip_us." ^ m,
            "us",
            match Hashtbl.find_opt roundtrip m with Some a -> us a | None -> 0. ))
        Replay.net_methods
    @ [
        ("obs.us_per_req", "us", us fig.Replay.total_b -. us fig.Replay.total_c);
        ("audit.records_per_s", "1/s", records_per_s);
      ]
    @ List.map
        (fun (name, unit) -> (name, unit, v name))
        [
          ("gc.minor_per_kreq", "count");
          ("gc.major_per_kreq", "count");
          ("audit_s", "s");
          ("wal_bytes_per_flow", "bytes");
          ("latency_p99_ms", "ms");
          ("latency_p999_ms", "ms");
          ("generator.late_ms", "ms");
        ]
  in
  (values, List.rev fig.Replay.problems)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let exe = ref "_build/default/bin/pet.exe" and work = ref ".perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME stdio-hcov, tcp-durable or tenants-open");
      ("--seed", Arg.Set_int seed, "N seed every input derives from");
      ("--seconds", Arg.Set_int seconds, "S scales the fixed amount of work");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--exe", Arg.Set_string exe, "PATH the pet binary");
      ("--work", Arg.Set_string work, "DIR scratch directory for data and logs");
    ]
    (fun a -> raise (Arg.Bad a))
    "pbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Plan.workloads) then begin
    prerr_endline ("pbench: unknown workload " ^ !workload);
    exit 2
  end;
  (try Unix.mkdir !work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let plan = Plan.make ~workload:!workload ~seed:!seed ~seconds:!seconds in
  let e2e = E2e.run { E2e.exe = !exe; work = !work } plan in
  let values, problems =
    if !trace = 0 then
      ( List.map (fun (name, unit) -> (name, unit, List.assoc name e2e.E2e.values)) end_to_end,
        e2e.E2e.problems )
    else
      let values, problems = layers ~work:!work plan e2e in
      (values, e2e.E2e.problems @ problems)
  in
  let problems =
    problems
    @ List.filter_map
        (fun (name, _, value) ->
          if Float.is_finite value then None else Some (name ^ " is not a finite number"))
        values
  in
  let correct = problems = [] in
  List.iteri (fun i p -> if i < 20 then Printf.printf "CHECK FAILED: %s\n" p) problems;
  let metrics =
    List.map
      (fun (name, unit, value) ->
        let value = if Float.is_finite value then value else 0. in
        Printf.printf "%-34s %14.4f %s\n" name value unit;
        (name, Pet_pet.Json.Obj [ ("value", Pet_pet.Json.Float value); ("unit", Pet_pet.Json.String unit) ]))
      values
  in
  let failed = if correct then e2e.E2e.failed else e2e.E2e.attempted in
  print_endline
    (Pet_pet.Json.to_string
       (Pet_pet.Json.Obj
          [
            ("correct", Pet_pet.Json.Bool correct);
            ("attempted", Pet_pet.Json.Int e2e.E2e.attempted);
            ("failed", Pet_pet.Json.Int failed);
            ("metrics", Pet_pet.Json.Obj metrics);
          ]));
  exit (if correct then 0 else 1)
