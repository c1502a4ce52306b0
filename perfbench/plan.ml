(* Seeded inputs for every workload. One seed derives everything: the
   H-cov valuations and respondent choices, the corpus tenants, the
   arrival and hot-swap schedule, and the preloaded archive. The server
   only ever sees the request lines built from a plan. *)

module Json = Pet_pet.Json
module Total = Pet_valuation.Total
module Partial = Pet_valuation.Partial
module Exposure = Pet_rules.Exposure
module Spec = Pet_rules.Spec
module Workflow = Pet_pet.Workflow
module Report = Pet_pet.Report
module Persist = Pet_server.Persist

type step =
  | Open_digest of string
  | Open_tenant of string
  | Get_report of { key : string; valuation : string }
      (** [key] names the rule set, for the repeat ratio *)
  | Choose  (** the report's recommended option *)
  | Submit
  | Revoke
  | Expire of int  (** seconds ahead *)

type flow = { at : float; (* open-loop arrival offset, seconds *) steps : step array }
type swap = { swap_at : float; tenant : string; rules : string }

type tenant = { name : string; text : string; form : Pet_corpus.Corpus.form }

type t = {
  workload : string;
  seed : int;
  flows : flow array;
  swaps : swap array;  (** sorted by [swap_at] *)
  tenants : tenant array;  (** published in setup (tenants-open) *)
  oracle : (string, string) Hashtbl.t;
      (** H-cov valuation -> expected get_report payload bytes *)
  ineligible_ok : bool;  (** corpus valuations may be refused as ineligible *)
  preload : int;  (** archived respondents written before the server starts *)
}

let method_of = function
  | Open_digest _ | Open_tenant _ -> "new_session"
  | Get_report _ -> "get_report"
  | Choose -> "choose_option"
  | Submit -> "submit_form"
  | Revoke -> "revoke"
  | Expire _ -> "expire"

let quote s = Json.to_string (Json.String s)

(* The request line for [step]; [session] is the id the flow's
   new_session returned, [option] the recommended index of its last
   report. *)
let line ~id ~session ~option = function
  | Open_digest d ->
    Printf.sprintf
      {|{"pet":1,"id":%d,"method":"new_session","params":{"digest":%s}}|} id
      (quote d)
  | Open_tenant n ->
    Printf.sprintf
      {|{"pet":1,"id":%d,"method":"new_session","params":{"tenant":%s}}|} id
      (quote n)
  | Get_report { valuation; _ } ->
    Printf.sprintf
      {|{"pet":1,"id":%d,"method":"get_report","params":{"session":%s,"valuation":%s}}|}
      id (quote session) (quote valuation)
  | Choose ->
    Printf.sprintf
      {|{"pet":1,"id":%d,"method":"choose_option","params":{"session":%s,"option":%d}}|}
      id (quote session) option
  | Submit ->
    Printf.sprintf
      {|{"pet":1,"id":%d,"method":"submit_form","params":{"session":%s}}|} id
      (quote session)
  | Revoke ->
    Printf.sprintf
      {|{"pet":1,"id":%d,"method":"revoke","params":{"session":%s}}|} id
      (quote session)
  | Expire after ->
    Printf.sprintf
      {|{"pet":1,"id":%d,"method":"expire","params":{"session":%s,"after":%d}}|}
      id (quote session) after

let publish_line ~id ~tenant ~rules =
  Printf.sprintf
    {|{"pet":1,"id":%d,"method":"publish_rules","params":{"tenant":%s,"rules":%s}}|}
    id (quote tenant) (quote rules)

let update_line ~id ~tenant ~rules =
  Printf.sprintf
    {|{"pet":1,"id":%d,"method":"update_rules","params":{"tenant":%s,"rules":%s}}|}
    id (quote tenant) (quote rules)

let wait_line ~id ~tenant =
  Printf.sprintf
    {|{"pet":1,"id":%d,"method":"tenant","params":{"name":%s,"wait":true}}|}
    id (quote tenant)

let simple_line ~id meth =
  Printf.sprintf {|{"pet":1,"id":%d,"method":%s}|} id (quote meth)

(* --- H-cov -------------------------------------------------------------------- *)

let hcov = lazy (Pet_casestudies.Hcov.exposure ())
let hcov_text = lazy (Spec.to_string (Lazy.force hcov))
let hcov_digest = lazy (Pet_server.Registry.digest (Lazy.force hcov_text))

(* The provider exactly as [pet serve] builds it: compiled backend,
   blank payoff. *)
let hcov_provider =
  lazy (Workflow.provider ~backend:Pet_rules.Engine.Compiled (Lazy.force hcov))

let hcov_eligible =
  lazy
    (Array.of_list (List.map Total.to_string (Exposure.eligible (Lazy.force hcov))))

let hcov_report valuation =
  let exposure = Lazy.force hcov in
  match
    Workflow.report_for (Lazy.force hcov_provider)
      (Total.of_string (Exposure.xp exposure) valuation)
  with
  | Ok report -> report
  | Error m -> failwith ("H-cov oracle: " ^ m)

let oracle_payload valuation =
  Json.to_string (Report.to_json (hcov_report valuation))

let fill_oracle oracle flows =
  Array.iter
    (fun f ->
      Array.iter
        (function
          | Get_report { valuation; _ } when not (Hashtbl.mem oracle valuation) ->
            Hashtbl.add oracle valuation (oracle_payload valuation)
          | _ -> ())
        f.steps)
    flows

let pick rng a = a.(Random.State.int rng (Array.length a))

let rng_for ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

(* --- Workload sizes -------------------------------------------------------------

   Fixed work per run: the flow count scales with --seconds only, never
   with how fast the commit under test is, so a faster commit does not
   grow a bigger archive. At --seconds 10 one repetition of stdio-hcov
   or tcp-durable takes 3-5 s on a 2-vCPU VM; tenants-open follows its
   10 s arrival schedule. *)

let hcov_flows_per_s = 600
let durable_flows_per_s = 200
let preload_factor = 10
let tenant_count = 200
let open_flows_per_s = 36.
let swap_period_s = 2.

let stdio_hcov ~seed ~seconds =
  let rng = rng_for ~seed "stdio-hcov" in
  let eligible = Lazy.force hcov_eligible in
  let digest = Lazy.force hcov_digest in
  let key = digest in
  let flows =
    Array.init (hcov_flows_per_s * seconds) (fun _ ->
        let reports =
          List.init
            (1 + Random.State.int rng 4)
            (fun _ -> Get_report { key; valuation = pick rng eligible })
        in
        {
          at = 0.;
          steps = Array.of_list ((Open_digest digest :: reports) @ [ Choose; Submit ]);
        })
  in
  let oracle = Hashtbl.create 2048 in
  fill_oracle oracle flows;
  {
    workload = "stdio-hcov";
    seed;
    flows;
    swaps = [||];
    tenants = [||];
    oracle;
    ineligible_ok = false;
    preload = 0;
  }

let tcp_durable ~seed ~seconds =
  let rng = rng_for ~seed "tcp-durable" in
  let eligible = Lazy.force hcov_eligible in
  let digest = Lazy.force hcov_digest in
  let n = durable_flows_per_s * seconds in
  let flows =
    Array.init n (fun i ->
        (* The tails sit at fixed positions: how many expiry horizons
           are armed at each point of the run sets how often the
           consent sweep refolds the archive, so a random placement
           would make the per-request cost differ from seed to seed. *)
        let tail =
          match i mod 10 with
          | 0 -> [ Revoke ]
          | 5 -> [ Expire 86_400 ]
          | _ -> []
        in
        {
          at = 0.;
          steps =
            Array.of_list
              ([
                 Open_digest digest;
                 Get_report { key = digest; valuation = pick rng eligible };
                 Choose;
                 Submit;
               ]
              @ tail);
        })
  in
  let oracle = Hashtbl.create 2048 in
  fill_oracle oracle flows;
  {
    workload = "tcp-durable";
    seed;
    flows;
    swaps = [||];
    tenants = [||];
    oracle;
    ineligible_ok = false;
    preload = preload_factor * n;
  }

(* The tenant corpus is one fixed scenario; --seed drives the traffic
   over it (arrivals, tenant picks, respondents, revocations, swaps).
   With a corpus per seed the popular forms' sizes, and with them the
   recompile cost every miss pays, changed from seed to seed. *)
let corpus_seed = 1

let tenants_open ~seed ~seconds =
  let rng = rng_for ~seed "tenants-open" in
  let scenario =
    Pet_corpus.Corpus.scenario ~seed:corpus_seed ~lo:8 ~hi:12 ~count:tenant_count ()
  in
  let tenants =
    Array.map
      (fun (f : Pet_corpus.Corpus.form) ->
        { name = f.Pet_corpus.Corpus.name; text = f.Pet_corpus.Corpus.text; form = f })
      scenario.Pet_corpus.Corpus.forms
  in
  let horizon = float_of_int seconds in
  let n = int_of_float (open_flows_per_s *. horizon) in
  (* A Poisson process conditioned on [n] arrivals: sorted uniform
     times. The tenant of each arrival comes from a stratified Zipf
     sample — every tenant appears its expected number of times
     (largest remainders), in a seeded order — so a run's recompile mix
     does not hinge on a few draws of heavy-tailed forms. *)
  let at = Array.init n (fun _ -> Random.State.float rng horizon) in
  Array.sort Float.compare at;
  let weights = scenario.Pet_corpus.Corpus.popularity in
  let counts = Array.map (fun w -> int_of_float (w *. float_of_int n)) weights in
  let short = n - Array.fold_left ( + ) 0 counts in
  Array.mapi (fun i w -> (w *. float_of_int n -. float_of_int counts.(i), i)) weights
  |> Array.to_list
  |> List.sort (fun a b -> compare b a)
  |> List.iteri (fun k (_, i) -> if k < short then counts.(i) <- counts.(i) + 1);
  let picks = Array.concat (Array.to_list (Array.mapi (fun i c -> Array.make c i) counts)) in
  for k = n - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let x = picks.(k) in
    picks.(k) <- picks.(j);
    picks.(j) <- x
  done;
  let flows =
    Array.mapi
      (fun k at ->
        let t = tenants.(picks.(k)) in
        let valuation =
          Pet_corpus.Corpus.valuation ~seed:corpus_seed t.form (Random.State.bits rng)
        in
        let tail = if Random.State.int rng 20 = 0 then [ Revoke ] else [] in
        {
          at;
          steps =
            Array.of_list
              ([ Open_tenant t.name; Get_report { key = t.name; valuation }; Choose; Submit ]
              @ tail);
        })
      at
  in
  let revision = Array.map (fun t -> t.form) tenants in
  let swaps =
    Array.init
      (int_of_float (horizon /. swap_period_s))
      (fun k ->
        let i = Pet_corpus.Corpus.pick rng scenario.Pet_corpus.Corpus.popularity in
        let next = Pet_corpus.Corpus.update ~seed:corpus_seed revision.(i) in
        revision.(i) <- next;
        {
          swap_at = (float_of_int k +. 0.5) *. swap_period_s;
          tenant = tenants.(i).name;
          rules = next.Pet_corpus.Corpus.text;
        })
  in
  {
    workload = "tenants-open";
    seed;
    flows;
    swaps;
    tenants;
    oracle = Hashtbl.create 1;
    ineligible_ok = true;
    preload = 0;
  }

let workloads = [ "stdio-hcov"; "tcp-durable"; "tenants-open" ]

let make ~workload ~seed ~seconds =
  match workload with
  | "stdio-hcov" -> stdio_hcov ~seed ~seconds
  | "tcp-durable" -> tcp_durable ~seed ~seconds
  | "tenants-open" -> tenants_open ~seed ~seconds
  | w -> invalid_arg ("unknown workload " ^ w)

let requests t =
  Array.fold_left (fun acc f -> acc + Array.length f.steps) 0 t.flows
  + Array.length t.swaps

(* --- Preloaded archive ---------------------------------------------------------

   [count] prior H-cov respondents, each archived the way the service
   itself would have: the session opened, the recommended option of
   its report chosen, the minimized form granted and submitted. Ids use
   a "p" prefix so live sessions ("s<n>") never collide with them. *)

let preload_events ?(grant_base = 0) ~seed ~count ~first ~now () =
  let rng = rng_for ~seed "preload" in
  let eligible = Lazy.force hcov_eligible in
  let digest = Lazy.force hcov_digest in
  let provider = Lazy.force hcov_provider in
  let chosen = Hashtbl.create 2048 in
  let choice valuation =
    match Hashtbl.find_opt chosen valuation with
    | Some c -> c
    | None ->
      let o = Report.recommended (hcov_report valuation) in
      let grant =
        match Workflow.submit provider o.Report.mas with
        | Ok g -> g
        | Error m -> failwith ("preload: " ^ m)
      in
      let c = (Partial.to_string o.Report.mas, o.Report.benefits, grant) in
      Hashtbl.add chosen valuation c;
      c
  in
  (* Draw every valuation even when skipping to [first], so stage k of
     a staged load sees the same respondents as a one-shot load. *)
  let valuations = Array.init (first + count) (fun _ -> pick rng eligible) in
  List.concat
    (List.init count (fun k ->
         let i = first + k in
         let grant_id = grant_base + k in
         let id = Printf.sprintf "p%d" i in
         let at = now -. (float_of_int (first + count - i) *. 1e-3) in
         let mas, benefits, grant = choice valuations.(i) in
         [
           Persist.Session_created { id; digest; tenant = None; at };
           Persist.Session_chosen { id; mas; benefits; at };
           Persist.Grant
             {
               digest;
               grant_id;
               form = Partial.to_string grant.Workflow.form;
               benefits = grant.Workflow.benefits;
               session = Some id;
               tenant = None;
               revoked = false;
             };
           Persist.Session_submitted { id; grant_id; at };
         ]))

let rules_event () =
  Persist.Rules { digest = Lazy.force hcov_digest; text = Lazy.force hcov_text }

let append_all store events =
  let rec go = function
    | [] -> ()
    | events ->
      let rec take n acc = function
        | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let batch, rest = take 2000 [] events in
      Pet_store.Store.append_batch store batch;
      go rest
  in
  go events

(* Write the rules and [t.preload] archived respondents into a fresh
   data directory (no fsync: this is input preparation, outside every
   timed window). *)
let write_preload t dir =
  match Pet_store.Store.open_dir ~fsync:false ~segment_bytes:(1 lsl 30) dir with
  | Error m -> failwith ("preload: " ^ m)
  | Ok (store, _) ->
    append_all store
      (rules_event ()
      :: preload_events ~seed:t.seed ~count:t.preload ~first:0
           ~now:(Unix.gettimeofday ()) ());
    Pet_store.Store.close store
