(* The three benchmark workloads, their verdict digest, and the two
   runners that run them: the untraced one (the program's own
   [Soft_runner.fuzz]) and the traced one (the same campaign rebuilt
   from the public [Collector] / [Patterns] / [Detector] / [Dialect]
   calls, with a span around each). *)

open Sqlfun_dialects
open Sqlfun_fault
module Telemetry = Sqlfun_telemetry.Telemetry
module Profile = Sqlfun_telemetry.Profile
module Json = Sqlfun_telemetry.Json
module Coverage = Sqlfun_coverage.Coverage
module Value = Sqlfun_value.Value
module Collector = Soft.Collector
module Detector = Soft.Detector
module Patterns = Soft.Patterns
module Soft_runner = Soft.Soft_runner

type workload = Stateless_sweep | Scenario_sweep | Default_sharded

let workloads = [ Stateless_sweep; Scenario_sweep; Default_sharded ]

let workload_name = function
  | Stateless_sweep -> "stateless-sweep"
  | Scenario_sweep -> "scenario-sweep"
  | Default_sharded -> "default-sharded"

let workload_of_string s =
  List.find_opt (fun w -> workload_name w = s) workloads

(* ----- verdict digest ----- *)

type verdicts = {
  dialect : string;
  cases : int;
  bugs : int;
  branches : int;
  digest : string;
      (** MD5 of the totals by verdict class, the bug sites in discovery
          order (with case number and pattern), the sorted FP
          signatures and the coverage point count *)
}

let verdicts ~dialect ~cases ~tel ~bugs ~fp_signatures ~branches =
  let b = Buffer.create 1024 in
  Printf.bprintf b "dialect %s\ncases %d\n" dialect cases;
  List.iter
    (fun cls ->
      Printf.bprintf b "%s %d\n"
        (Telemetry.verdict_class_to_string cls)
        (Telemetry.verdict_total tel cls))
    Telemetry.verdict_classes;
  List.iter
    (fun (bug : Detector.found_bug) ->
      Printf.bprintf b "bug %s #%d %s\n" bug.Detector.spec.Fault.site
        bug.Detector.case_number
        (match bug.Detector.found_by with
         | Some p -> Pattern_id.to_string p
         | None -> "seed"))
    bugs;
  List.iter (Printf.bprintf b "fp %s\n") fp_signatures;
  Printf.bprintf b "branches %d\n" branches;
  {
    dialect;
    cases;
    bugs = List.length bugs;
    branches;
    digest = Digest.to_hex (Digest.string (Buffer.contents b));
  }

let verdicts_of_result (r : Soft_runner.result) =
  verdicts ~dialect:r.Soft_runner.dialect.Dialect.id
    ~cases:r.Soft_runner.cases_executed ~tel:r.Soft_runner.telemetry
    ~bugs:r.Soft_runner.bugs ~fp_signatures:r.Soft_runner.fp_signatures
    ~branches:r.Soft_runner.branches_covered

let verdicts_to_json v =
  Json.Obj
    [
      ("dialect", Json.Str v.dialect);
      ("cases", Json.Int v.cases);
      ("bugs", Json.Int v.bugs);
      ("branches", Json.Int v.branches);
      ("digest", Json.Str v.digest);
    ]

(* A campaign that raises is reported by dialect, with the exception. *)
let outcome_to_json dialect = function
  | Ok v -> verdicts_to_json v
  | Error msg ->
    Json.Obj [ ("dialect", Json.Str dialect); ("error", Json.Str msg) ]

(* ----- untraced: the program's own campaign ----- *)

let fuzz ?budget ~jobs w prof =
  match w with
  | Stateless_sweep -> Soft_runner.fuzz ?budget ~stateful:false prof
  | Scenario_sweep -> Soft_runner.fuzz ?budget ~patterns:[] prof
  | Default_sharded -> Soft_runner.fuzz ?budget ~shards:jobs ~jobs prof

let stateful = function
  | Stateless_sweep -> false
  | Scenario_sweep | Default_sharded -> true

let patterns = function
  | Scenario_sweep -> []
  | Stateless_sweep | Default_sharded -> Pattern_id.all

(* ----- set-up: what a campaign does before its first generated case ----- *)

let setup_ns prof =
  let tel = Telemetry.create () in
  let t0 = Trace.now_ns () in
  let registry = Dialect.registry prof in
  let seeds =
    Collector.collect ~telemetry:tel ~registry ~suite:prof.Dialect.seeds ()
  in
  let det = Detector.create ~telemetry:tel prof in
  List.iter
    (fun (s : Collector.seed) -> ignore (Detector.run_stmt det s.Collector.stmt))
    seeds;
  Trace.now_ns () - t0

(* ----- traced: the campaign rebuilt from public calls ----- *)

(* What the traced run reads off the program's own collectors, summed
   over the dialect campaigns of one sweep. *)
type layers = {
  mutable seeds : int;
  mutable work_items : int;
  mutable batches : int;
  mutable batched_cases : int;
  mutable cases : int;
  mutable restarts : int;
  mutable restart_ns : int;
  mutable new_bugs : int;
  mutable detect_ns : int;
  mutable busy_ns : int;  (** execute + detect stage totals *)
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable plan_fallbacks : int;
  mutable compact_hits : int;
  mutable compact_spills : int;
  mutable prereqs : int;
  mutable alloc_words : float;
  mutable major_collections : int;
  mutable campaign_ns : int;
  (* stage aggregates standing in for spans the sharded campaign runs
     out of the benchmark's reach (on worker domains, inside
     [Soft_runner.fuzz]); zero on the sequential workloads *)
  mutable stage_collect_ns : int;
  mutable stage_generate_ns : int;
  mutable stage_seed_replay_ns : int;
  profile : Profile.t;
}

let new_layers () =
  {
    seeds = 0;
    work_items = 0;
    batches = 0;
    batched_cases = 0;
    cases = 0;
    restarts = 0;
    restart_ns = 0;
    new_bugs = 0;
    detect_ns = 0;
    busy_ns = 0;
    memo_hits = 0;
    memo_misses = 0;
    plan_hits = 0;
    plan_misses = 0;
    plan_fallbacks = 0;
    compact_hits = 0;
    compact_spills = 0;
    prereqs = 0;
    alloc_words = 0.;
    major_collections = 0;
    campaign_ns = 0;
    stage_collect_ns = 0;
    stage_generate_ns = 0;
    stage_seed_replay_ns = 0;
    profile = Profile.create ();
  }

let stage tel name =
  match
    List.find_opt
      (fun (s : Telemetry.stage_timing) -> s.Telemetry.stage = name)
      (Telemetry.stage_timings tel)
  with
  | Some s -> (s.Telemetry.calls, s.Telemetry.total_ns)
  | None -> (0, 0)

let stage_ns tel name = snd (stage tel name)

(* Counters every campaign shape reports the same way. *)
let add_collector_counts l tel =
  l.detect_ns <- l.detect_ns + stage_ns tel "detect";
  (* restarts run inside the detect span (classify path) or the execute
     span (batch path), so adding their stage would count them twice *)
  l.busy_ns <- l.busy_ns + stage_ns tel "execute" + stage_ns tel "detect";
  let m = Telemetry.memo_counts tel in
  l.memo_hits <- l.memo_hits + m.Telemetry.hits;
  l.memo_misses <- l.memo_misses + m.Telemetry.misses;
  let c = Telemetry.compile_counts tel in
  l.plan_hits <- l.plan_hits + c.Telemetry.c_hits;
  l.plan_misses <- l.plan_misses + c.Telemetry.c_misses;
  l.plan_fallbacks <- l.plan_fallbacks + c.Telemetry.c_fallbacks;
  let k = Telemetry.compact_counts tel in
  l.compact_hits <- l.compact_hits + k.Telemetry.k_hits;
  l.compact_spills <- l.compact_spills + k.Telemetry.k_spills

(* The work streams [Soft_runner] builds for a batched campaign: every
   pattern in paper order, then the stateful scenario stream. *)
let work_streams ~tel ~registry ~seeds ~patterns ~stateful =
  List.map
    (fun p -> Patterns.generate_work ~telemetry:tel ~registry ~seeds p)
    patterns
  @
  if stateful then
    [
      Seq.map
        (fun sc -> Patterns.Single sc)
        (Patterns.generate_scenarios ~telemetry:tel ~registry ~seeds ());
    ]
  else []

(* [Soft_runner]'s budgeted enumeration, with stream forcing routed
   through [next] so the benchmark can time it. The budget shares must
   match the runner's exactly, or the traced digest would describe a
   different stream. *)
let drain_share ~next ~emit works n =
  let rec go works taken =
    if taken >= n then (taken, Some works)
    else
      match next works with
      | None -> (taken, None)
      | Some (w, rest) ->
        let size = Patterns.work_size w in
        if taken + size <= n then begin
          emit w;
          go rest (taken + size)
        end
        else
          (match w with
           | Patterns.Single _ -> assert false (* size 1 always fits *)
           | Patterns.Batched b ->
             let head, tail = Patterns.split_batch b (n - taken) in
             emit (Patterns.Batched head);
             (n, Some (Seq.cons (Patterns.Batched tail) rest)))
  in
  go works 0

let emit_budgeted ~next ~emit ~budget streams =
  match budget with
  | None ->
    List.iter
      (fun s ->
        let rec go s =
          match next s with
          | None -> ()
          | Some (w, rest) ->
            emit w;
            go rest
        in
        go s)
      streams
  | Some b ->
    let live = ref streams in
    let remaining = ref b in
    while !remaining > 0 && !live <> [] do
      let shares = Soft_runner.split_budget !remaining (List.length !live) in
      live :=
        List.concat
          (List.map2
             (fun s share ->
               if share = 0 then [ s ]
               else begin
                 let taken, rest = drain_share ~next ~emit s share in
                 remaining := !remaining - taken;
                 match rest with Some s -> [ s ] | None -> []
               end)
             !live shares)
    done

(* One sequential campaign, call for call what [Soft_runner.fuzz]
   does with [shards = 1] and no timeseries. *)
let traced_sequential tr l ?budget ~patterns ~stateful prof =
  let tel = Telemetry.create () in
  let dialect = prof.Dialect.id in
  let compact0 = Value.Compact.read () in
  let arm_calls = ref 0 and arm_ns = ref 0 in
  let registry, seeds, det =
    Fun.protect ~finally:(fun () -> Telemetry.flush tel) @@ fun () ->
    Telemetry.with_span tel ~dialect "campaign" @@ fun () ->
    let registry =
      Trace.with_span tr "dialect.registry" (fun () -> Dialect.registry prof)
    in
    let seeds =
      Trace.with_span tr "collector.collect" (fun () ->
          Collector.collect ~telemetry:tel ~registry ~suite:prof.Dialect.seeds
            ())
    in
    let det =
      Trace.with_span tr "detector.create" (fun () ->
          Detector.create ~telemetry:tel prof)
    in
    (* the engine arm [create] just did is timed under the restart
       stage; everything the stage gains from here on is a restart *)
    let c, ns = stage tel "restart-after-crash" in
    arm_calls := c;
    arm_ns := ns;
    Trace.with_span tr "detector.seed_replay" (fun () ->
        Telemetry.with_span tel ~dialect "seed-replay" (fun () ->
            List.iter
              (fun (s : Collector.seed) ->
                ignore (Detector.run_stmt det s.Collector.stmt))
              seeds));
    let gen = Trace.group tr "patterns.generate" in
    let run_case = Trace.group ~keep:true tr "detector.run_case" in
    let run_scenario = Trace.group ~keep:true tr "detector.run_scenario" in
    let run_batch = Trace.group tr "detector.run_batch" in
    let next s = Trace.timed gen (fun () -> Seq.uncons s) in
    let emit w =
      l.work_items <- l.work_items + 1;
      match w with
      | Patterns.Single { Patterns.prereqs = []; case } ->
        ignore (Trace.timed run_case (fun () -> Detector.run_case det case))
      | Patterns.Single sc ->
        ignore
          (Trace.timed run_scenario (fun () -> Detector.run_scenario det sc))
      | Patterns.Batched b ->
        l.batches <- l.batches + 1;
        l.batched_cases <- l.batched_cases + Patterns.batch_size b;
        Trace.timed run_batch (fun () -> Detector.run_batch det b)
    in
    emit_budgeted ~next ~emit ~budget
      (work_streams ~tel ~registry ~seeds ~patterns ~stateful);
    (registry, seeds, det)
  in
  (* the runner's positions line re-enumerates the scenario stream *)
  Trace.with_span tr "patterns.count_positions" (fun () ->
      ignore
        (Patterns.count_positions seeds
        + if stateful then
            Patterns.count_scenario_positions
              (Patterns.generate_scenarios ~registry ~seeds ())
          else 0));
  let d = Value.Compact.since compact0 in
  Telemetry.compact_add tel ~hits:d.Value.Compact.hits
    ~spills:d.Value.Compact.spills;
  let calls, ns = stage tel "restart-after-crash" in
  l.restarts <- l.restarts + (calls - !arm_calls);
  l.restart_ns <- l.restart_ns + (ns - !arm_ns);
  l.seeds <- l.seeds + List.length seeds;
  l.cases <- l.cases + Detector.executed det;
  l.new_bugs <- l.new_bugs + List.length (Detector.bugs det);
  l.prereqs <- l.prereqs + Detector.prereq_statements det;
  add_collector_counts l tel;
  Profile.merge_into ~dst:l.profile (Detector.exec_profile det);
  verdicts ~dialect ~cases:(Detector.executed det) ~tel
    ~bugs:(Detector.bugs det)
    ~fp_signatures:(Detector.fp_signatures det)
    ~branches:(Coverage.count (Detector.coverage det))

(* The sharded campaign runs its layers on worker domains inside
   [Soft_runner.fuzz]; outside-in, the benchmark sees one call and the
   merged aggregates the program keeps. *)
let traced_sharded tr l ?budget ~jobs prof =
  let r =
    Trace.with_span tr "soft_runner.fuzz" (fun () ->
        Soft_runner.fuzz ?budget ~shards:jobs ~jobs prof)
  in
  let tel = r.Soft_runner.telemetry in
  (* every shard arms one engine; fresh arms and restarts are the same
     work, so the restart share of the stage is pro rata *)
  let calls, ns = stage tel "restart-after-crash" in
  let restarts = Stdlib.max 0 (calls - jobs) in
  l.restarts <- l.restarts + restarts;
  if calls > 0 then l.restart_ns <- l.restart_ns + (ns * restarts / calls);
  let b = Telemetry.batch_counts tel in
  l.batches <- l.batches + b.Telemetry.b_flushes;
  l.batched_cases <- l.batched_cases + b.Telemetry.b_cases;
  l.stage_collect_ns <- l.stage_collect_ns + stage_ns tel "collect";
  l.stage_generate_ns <- l.stage_generate_ns + stage_ns tel "generate";
  l.stage_seed_replay_ns <- l.stage_seed_replay_ns + stage_ns tel "seed-replay";
  l.seeds <- l.seeds + r.Soft_runner.seeds_collected;
  l.cases <- l.cases + r.Soft_runner.cases_executed;
  l.new_bugs <- l.new_bugs + List.length r.Soft_runner.bugs;
  l.prereqs <- l.prereqs + r.Soft_runner.prereq_statements;
  add_collector_counts l tel;
  Profile.merge_into ~dst:l.profile r.Soft_runner.profile;
  verdicts_of_result r

let alloc_words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* The traced sweep: one run id per dialect campaign, a [Gc.quick_stat]
   delta around each. A campaign that raises is reported, not fatal. *)
let traced ?budget ~jobs w tr l order =
  List.mapi
    (fun i prof ->
      Trace.set_run tr i;
      let g0 = Gc.quick_stat () in
      let t0 = Trace.now_ns () in
      let outcome =
        match
          Trace.with_span tr "campaign" (fun () ->
              match w with
              | Default_sharded -> traced_sharded tr l ?budget ~jobs prof
              | Stateless_sweep | Scenario_sweep ->
                traced_sequential tr l ?budget ~patterns:(patterns w)
                  ~stateful:(stateful w) prof)
        with
        | v -> Ok v
        | exception e -> Error (Printexc.to_string e)
      in
      l.campaign_ns <- l.campaign_ns + (Trace.now_ns () - t0);
      let g1 = Gc.quick_stat () in
      l.alloc_words <- l.alloc_words +. (alloc_words g1 -. alloc_words g0);
      l.major_collections <-
        l.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
      (prof.Dialect.id, outcome))
    order

(* ----- per-layer metrics ----- *)

let ms ns = float_of_int ns /. 1e6
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* [(name, value, unit)] for every per-layer metric the traced run
   gives; [jobs] is the number of worker domains the campaigns ran on.
   [trace.overhead_pct] needs the untraced run and is added by the
   caller. *)
let layer_metrics ~jobs tr l =
  let self = Trace.self_ns tr in
  let phase p = Profile.phase_self_ns l.profile p in
  let eval_fn, eval_stmt =
    List.fold_left
      (fun (f, s) (r : Profile.row) ->
        if r.Profile.r_phase <> Profile.Eval then (f, s)
        else if r.Profile.r_func = "" then (f, s + r.Profile.r_self_ns)
        else (f + r.Profile.r_self_ns, s))
      (0, 0) (Profile.rows l.profile)
  in
  let singles = Trace.durations tr [ "detector.run_case"; "detector.run_scenario" ] in
  let word_bytes = Sys.word_size / 8 in
  let self_total =
    List.fold_left (fun acc (_, ns) -> acc + ns) 0 (Trace.self_by_name tr)
  in
  [
    ("collector.collect_ms", ms (self "collector.collect" + l.stage_collect_ns), "ms");
    ("collector.seeds", float_of_int l.seeds, "count");
    ("dialect.registry_ms", ms (self "dialect.registry"), "ms");
    ("patterns.generate_ms", ms (self "patterns.generate" + l.stage_generate_ns), "ms");
    ("patterns.work_items", float_of_int l.work_items, "count");
    ("patterns.batches", float_of_int l.batches, "count");
    ("patterns.batched_cases", float_of_int l.batched_cases, "count");
    ("detector.create_ms", ms (self "detector.create"), "ms");
    ( "detector.seed_replay_ms",
      ms (self "detector.seed_replay" + l.stage_seed_replay_ns),
      "ms" );
    ("detector.run_case_ms", ms (self "detector.run_case"), "ms");
    ("detector.run_batch_ms", ms (self "detector.run_batch"), "ms");
    ("detector.run_scenario_ms", ms (self "detector.run_scenario"), "ms");
    ("detector.restart_ms", ms l.restart_ns, "ms");
    ("detector.restarts", float_of_int l.restarts, "count");
    ("detector.new_bugs_per_restart", ratio l.new_bugs l.restarts, "ratio");
    ("detector.classify_ms", ms l.detect_ns, "ms");
    ("detector.memo_hit_rate", ratio l.memo_hits (l.memo_hits + l.memo_misses), "ratio");
    ("detector.case_p50_ns", float_of_int (Trace.percentile singles 50.), "ns");
    ("detector.case_p99_ns", float_of_int (Trace.percentile singles 99.), "ns");
    ("detector.case_max_ns", float_of_int (Trace.percentile singles 100.), "ns");
    ("engine.parse_ms", ms (phase Profile.Parse), "ms");
    ("engine.plan_ms", ms (phase Profile.Plan), "ms");
    ("engine.eval_fn_ms", ms eval_fn, "ms");
    ("engine.eval_stmt_ms", ms eval_stmt, "ms");
    ("engine.storage_ms", ms (phase Profile.Storage), "ms");
    ("engine.other_ms", ms (phase Profile.Other), "ms");
    ("engine.plan_hits", float_of_int l.plan_hits, "count");
    ("engine.plan_fallbacks", float_of_int l.plan_fallbacks, "count");
    ("engine.plan_hit_rate", ratio l.plan_hits (l.plan_hits + l.plan_misses), "ratio");
    ("engine.prereq_statements", float_of_int l.prereqs, "count");
    ("engine.compact_spill_rate", ratio l.compact_spills l.compact_hits, "ratio");
    ( "gc.alloc_bytes_per_case",
      (if l.cases = 0 then 0.
       else l.alloc_words *. float_of_int word_bytes /. float_of_int l.cases),
      "bytes" );
    ("gc.major_collections", float_of_int l.major_collections, "count");
    ("soft_runner.campaign_ms", ms l.campaign_ns, "ms");
    ( "soft_runner.shard_busy_share",
      ratio l.busy_ns (l.campaign_ns * jobs),
      "ratio" );
    ("trace.wall_ms", ms (Trace.wall_ns tr), "ms");
    ("trace.self_ms", ms self_total, "ms");
    ("trace.unattributed_ms", ms (Trace.unattributed_ns tr), "ms");
  ]
