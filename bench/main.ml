(** The benchmark harness: regenerates every table and figure of the
    paper (paper-reported vs measured on this reproduction), runs the
    ablations called out in DESIGN.md, and finishes with Bechamel
    micro-benchmarks of the pipeline stages.

    Run with: [dune exec bench/main.exe] *)

open Sqlfun_dialects
open Sqlfun_fault
module Telemetry = Sqlfun_telemetry.Telemetry
module Profile = Sqlfun_telemetry.Profile
module Timeseries = Sqlfun_telemetry.Timeseries
module Json = Sqlfun_telemetry.Json

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ----- Sections 4-5: the bug study ----- *)

let study_tables () =
  section "Bug study (Sections 4-5)";
  print_string (Sqlfun_harness.Tables.table1 ());
  print_newline ();
  print_string (Sqlfun_harness.Tables.finding1 ());
  print_newline ();
  print_string (Sqlfun_harness.Tables.figure1 ());
  print_newline ();
  print_string (Sqlfun_harness.Tables.table2 ());
  print_newline ();
  print_string (Sqlfun_harness.Tables.finding3 ());
  print_string (Sqlfun_harness.Tables.finding4 ());
  print_newline ();
  print_string (Sqlfun_harness.Tables.root_causes ())

(* ----- Section 6: pattern examples ----- *)

let pattern_tables () =
  section "Boundary-value-generation patterns (Section 6)";
  print_string (Sqlfun_harness.Tables.table3 ())

(* ----- Sections 7.3-7.4: the full SOFT campaign ----- *)

type parallel_run = {
  wall_s_parallel : float;
  parallel_jobs : int;
  parallel_deterministic : bool;
}

type campaign_timing = {
  wall_s_sequential : float;
      (* the observatory baseline: timeseries recording and snapshot
         bookkeeping on *)
  wall_s_plain : float;
      (* a fresh plain sweep without the observatory's instrumentation
         (no shared collector, no recorders) — the baseline of the
         compact and batch ratios *)
  plain_deterministic : bool;
  wall_s_nocompact : float;   (* same sequential sweep, ~compact:false *)
  compact_deterministic : bool;
  wall_s_batch : float;
      (* the default pipeline: slot-stream batched execution on — the
         only timed leg where [~batch] is not pinned off *)
  batch_deterministic : bool;
  batch_cases : int;          (* members executed through run_batch *)
  batch_flushes : int;        (* family batches those members formed *)
  wall_s_stateful : float;
      (* one full sweep with the stateful scenario stream on — the only
         leg where the parse/storage fault stages are reachable; every
         other leg pins ~stateful:false so its ratios stay comparable
         with pre-scenario snapshots *)
  stateful_scenarios : int;       (* scenarios executed across dialects *)
  stateful_prereqs : int;         (* prerequisite statements across dialects *)
  stateful_stages : Soft.Detector.stage_counts;
      (* crash verdicts by occurrence stage, summed across dialects *)
  per_dialect : (string * float * int) list;
      (* (dialect, wall_s, cases) of each baseline campaign — the
         per-dialect ns/case denominators *)
  prof_boxed : Profile.t;
      (* merged attribution of the compact-off sweep ("before") *)
  prof_compact : Profile.t;
      (* merged attribution of a plain default sweep ("after") *)
  parallel : parallel_run option;
      (* [None] when the host has one core: a jobs>1 rerun there only
         measures domain coordination overhead, and reporting its ratio
         as "the parallel speedup" would be misleading *)
  cores : int;
}

(* The campaign observatory artifacts accumulated across the seven
   sequential sweeps: the merged execute-stage attribution profile and
   the global coverage-growth curve. *)
type observatory = {
  obs_profile : Profile.t;
  obs_curve : (int * int) list;  (* (cases, branches), chronological *)
}

(* The full runs of the exhaustive campaign: the instrumented
   sequential baseline (its stage timings feed the trajectory artifact,
   as before), plain, compact-off, batched and stateful legs, and — on
   multi-core hosts only — a multi-domain run at jobs = 4. Every leg is
   checked field-for-field against the baseline — a speedup is only
   worth reporting if the answers agree.

   The baseline run doubles as the observatory pass: each campaign
   carries a timeseries recorder whose periodic snapshots, offset by the
   totals of the campaigns already finished, chain into one global
   coverage-growth curve, and the per-campaign attribution profiles
   merge into one cross-dialect profile. *)
let campaign tel =
  section "SOFT campaign against the seven simulated DBMSs (Table 4)";
  let cores = Domain.recommended_domain_count () in
  let agg_profile = Profile.create () in
  let curve = ref [] in
  let base_cases = ref 0 and base_branches = ref 0 in
  (* each timed leg starts from a compacted heap: a sweep allocates
     heavily, and without the barrier the *next* leg pays the collection
     debt of the previous one, skewing every ratio in one direction *)
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let dialect_walls = ref [] in
  let results =
    List.map
      (fun prof ->
        let snaps = ref [] in
        let cfg =
          {
            Timeseries.every_cases = 2000;
            every_ms = 0;
            emit = (fun s -> snaps := s :: !snaps);
          }
        in
        let tc0 = Unix.gettimeofday () in
        let r =
          (* [~batch:false]: the observatory baseline keeps the
             historical per-case pipeline so wall_s_sequential stays
             comparable with pre-batch snapshots; the batched leg below
             times the default *)
          Soft.Soft_runner.fuzz ~telemetry:tel ~timeseries:cfg
            ~stateful:false ~batch:false prof
        in
        dialect_walls :=
          ( prof.Dialect.id,
            Unix.gettimeofday () -. tc0,
            r.Soft.Soft_runner.cases_executed )
          :: !dialect_walls;
        Profile.merge_into ~dst:agg_profile r.Soft.Soft_runner.profile;
        (* the shard-series snapshots give the within-campaign growth;
           shift them by the completed campaigns so the x axis is the
           global case count, then close the segment at the campaign's
           exact totals (coverage recorders are per-campaign, so global
           branch coverage is the sum) *)
        List.iter
          (fun (s : Timeseries.snapshot) ->
            if s.Timeseries.shard >= 0 && not s.Timeseries.final then
              curve :=
                ( !base_cases + s.Timeseries.cases,
                  !base_branches + s.Timeseries.branches )
                :: !curve)
          (List.rev !snaps);
        base_cases := !base_cases + r.Soft.Soft_runner.cases_executed;
        base_branches := !base_branches + r.Soft.Soft_runner.branches_covered;
        curve := (!base_cases, !base_branches) :: !curve;
        r)
      Dialect.all
  in
  let seq_s = Unix.gettimeofday () -. t0 in
  Printf.printf "(exhaustive pattern enumeration, %.1f s wall clock)\n\n" seq_s;
  print_string (Sqlfun_harness.Tables.table4 results);
  print_newline ();
  print_string (Sqlfun_harness.Tables.table4_totals results);
  print_newline ();
  print_string (Sqlfun_harness.Tables.figure2 results);
  print_newline ();
  Printf.printf "Hottest functions (execute-stage attribution, %.1f%% of \
                 profiled engine time):\n\n"
    (100. *. Profile.attribution agg_profile);
  print_string (Profile.top_markdown agg_profile);
  (* every timed leg below is min-of-two: this host's wall-clock noise
     (±15% run to run) is larger than most of the ratios, and the
     minimum of two runs is the standard symmetric estimator for "what
     the sweep costs when the machine isn't busy" *)
  let timed_leg f =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* a plain sweep under the same conditions as the compact-off and
     batched legs (no shared collector, no timeseries recorders), so
     their ratios compare like-for-like runs instead of reusing the
     instrumented observatory baseline *)
  let plain_results, p1 =
    timed_leg (fun () ->
        Soft.Soft_runner.fuzz_all ~stateful:false ~batch:false ())
  in
  let plain_results2, p2 =
    timed_leg (fun () ->
        Soft.Soft_runner.fuzz_all ~stateful:false ~batch:false ())
  in
  let plain_s = Float.min p1 p2 in
  let same_result (a : Soft.Soft_runner.result) (b : Soft.Soft_runner.result) =
    let bug_key (x : Soft.Detector.found_bug) =
      (x.Soft.Detector.spec.Fault.site, x.Soft.Detector.case_number)
    in
    a.Soft.Soft_runner.cases_executed = b.Soft.Soft_runner.cases_executed
    && a.Soft.Soft_runner.passed = b.Soft.Soft_runner.passed
    && a.Soft.Soft_runner.clean_errors = b.Soft.Soft_runner.clean_errors
    && a.Soft.Soft_runner.false_positives = b.Soft.Soft_runner.false_positives
    && a.Soft.Soft_runner.fp_signatures = b.Soft.Soft_runner.fp_signatures
    && a.Soft.Soft_runner.known_crashes = b.Soft.Soft_runner.known_crashes
    && List.map bug_key a.Soft.Soft_runner.bugs
       = List.map bug_key b.Soft.Soft_runner.bugs
  in
  let plain_deterministic =
    List.for_all2 same_result results plain_results
    && List.for_all2 same_result results plain_results2
  in
  Printf.printf "\nplain sweep: %.1f s (results %s)\n" plain_s
    (if plain_deterministic then "identical" else "DIVERGED");
  (* the compact-representation before/after: a ~compact:false sweep
     materializes every RANGE array and REPEAT/pad string eagerly — the
     pre-PR-8 pipeline. Its merged attribution profile is the "before"
     half of the hottest-function table in the telemetry artifact (the
     plain leg is "after"). *)
  let nocompact_results, kc1 =
    timed_leg
      (Soft.Soft_runner.fuzz_all ~compact:false ~stateful:false ~batch:false)
  in
  let nocompact_results2, kc2 =
    timed_leg
      (Soft.Soft_runner.fuzz_all ~compact:false ~stateful:false ~batch:false)
  in
  let nocompact_s = Float.min kc1 kc2 in
  let compact_deterministic =
    List.for_all2 same_result results nocompact_results
    && List.for_all2 same_result results nocompact_results2
  in
  let merge_profiles rs =
    let p = Profile.create () in
    List.iter
      (fun (r : Soft.Soft_runner.result) ->
        Profile.merge_into ~dst:p r.Soft.Soft_runner.profile)
      rs;
    p
  in
  Printf.printf
    "compact values: %.1f s with, %.1f s without (%.2fx, results %s)\n"
    plain_s nocompact_s
    (if plain_s > 0. then nocompact_s /. plain_s else 0.)
    (if compact_deterministic then "identical" else "DIVERGED");
  (* the batched before/after: every pinned leg above runs the
     historical per-case pipeline, so the plain leg doubles as the
     unbatched baseline under identical conditions (no shared
     collector, no recorders); the leg here is the same sweep with
     slot-stream batching on — the default pipeline. *)
  let batch_results, bt1 =
    timed_leg (fun () -> Soft.Soft_runner.fuzz_all ~stateful:false ())
  in
  let batch_results2, bt2 =
    timed_leg (fun () -> Soft.Soft_runner.fuzz_all ~stateful:false ())
  in
  let batch_s = Float.min bt1 bt2 in
  let nobatch_s = plain_s in
  let batch_deterministic =
    List.for_all2 same_result results batch_results
    && List.for_all2 same_result results batch_results2
  in
  let batch_cases, batch_flushes =
    List.fold_left
      (fun (c, f) (r : Soft.Soft_runner.result) ->
        let bc = Telemetry.batch_counts r.Soft.Soft_runner.telemetry in
        (c + bc.Telemetry.b_cases, f + bc.Telemetry.b_flushes))
      (0, 0) batch_results
  in
  let total_cases =
    List.fold_left
      (fun acc (r : Soft.Soft_runner.result) ->
        acc + r.Soft.Soft_runner.cases_executed)
      0 batch_results
  in
  Printf.printf
    "batched execution: %.1f s with, %.1f s without (%.2fx, %d cases in %d \
     family batches, results %s)\n"
    batch_s nobatch_s
    (if batch_s > 0. then nobatch_s /. batch_s else 0.)
    batch_cases batch_flushes
    (if batch_deterministic then "identical" else "DIVERGED");
  if total_cases > 0 then
    Printf.printf
      "  fixed overhead recovered: %.0f ns/case (sweep-wide delta)\n"
      ((nobatch_s -. batch_s) *. 1e9 /. float_of_int total_cases);
  (* the stateful leg: scenario synthesis, prerequisite execution and
     baseline restores all on — the campaign the default CLI runs *)
  let stateful_results, stateful_s =
    timed_leg (fun () -> Soft.Soft_runner.fuzz_all ())
  in
  let stateful_scenarios, stateful_prereqs, stateful_stages =
    List.fold_left
      (fun (sc, pr, st) (r : Soft.Soft_runner.result) ->
        let sv = r.Soft.Soft_runner.stage_verdicts in
        ( sc + r.Soft.Soft_runner.scenarios_executed,
          pr + r.Soft.Soft_runner.prereq_statements,
          {
            Soft.Detector.parse = st.Soft.Detector.parse + sv.Soft.Detector.parse;
            execute = st.Soft.Detector.execute + sv.Soft.Detector.execute;
            storage = st.Soft.Detector.storage + sv.Soft.Detector.storage;
          } ))
      (0, 0, { Soft.Detector.parse = 0; execute = 0; storage = 0 })
      stateful_results
  in
  Printf.printf
    "stateful scenarios: %.1f s for the full sweep (%d scenarios, %d      prerequisite statements; crash verdicts parse %d / execute %d /      storage %d)\n"
    stateful_s stateful_scenarios stateful_prereqs
    stateful_stages.Soft.Detector.parse stateful_stages.Soft.Detector.execute
    stateful_stages.Soft.Detector.storage;
  let parallel =
    if cores <= 1 then begin
      Printf.printf
        "parallel rerun: skipped (1 core — a jobs>1 run here would only \
         measure domain coordination overhead)\n";
      None
    end
    else begin
      let jobs = 4 in
      (* campaign-level parallelism only (shards = 1): 4 worker domains
         for 7 dialect campaigns keeps the domain count at the job
         count — nesting shard pools inside campaign jobs would
         oversubscribe (jobs x (shards + 1) domains) and the GC
         coordination cost would swamp the win. Sharding is for
         single-campaign runs. *)
      Gc.compact ();
      let t1 = Unix.gettimeofday () in
      let par_results =
        Soft.Soft_runner.fuzz_all ~stateful:false ~batch:false ~jobs ()
      in
      let par_s = Unix.gettimeofday () -. t1 in
      let deterministic = List.for_all2 same_result results par_results in
      Printf.printf
        "parallel rerun: %.1f s at jobs=%d (%.2fx vs sequential, %d cores, \
         results %s)\n"
        par_s jobs
        (if par_s > 0. then seq_s /. par_s else 0.)
        cores
        (if deterministic then "identical" else "DIVERGED");
      Some
        {
          wall_s_parallel = par_s;
          parallel_jobs = jobs;
          parallel_deterministic = deterministic;
        }
    end
  in
  ( results,
    {
      wall_s_sequential = seq_s;
      wall_s_plain = plain_s;
      plain_deterministic;
      wall_s_nocompact = nocompact_s;
      compact_deterministic;
      wall_s_batch = batch_s;
      batch_deterministic;
      batch_cases;
      batch_flushes;
      wall_s_stateful = stateful_s;
      stateful_scenarios;
      stateful_prereqs;
      stateful_stages;
      per_dialect = List.rev !dialect_walls;
      prof_boxed = merge_profiles nocompact_results;
      prof_compact = merge_profiles plain_results;
      parallel;
      cores;
    },
    { obs_profile = agg_profile; obs_curve = List.rev !curve } )

(* ----- Section 7.5: tool comparison ----- *)

let comparison () =
  section "Tool comparison under an equal statement budget (Tables 5-6)";
  let budget = 20_000 in
  Printf.printf "(budget: %d statements per tool per dialect)\n\n" budget;
  let runs = Sqlfun_harness.Compare.comparison ~budget () in
  print_string (Sqlfun_harness.Tables.table5 runs);
  print_newline ();
  print_string (Sqlfun_harness.Tables.table6 runs);
  print_newline ();
  print_string (Sqlfun_harness.Tables.bugs_in_budget runs)

(* ----- Ablations ----- *)

let ablations () =
  section "Ablations: contribution of each pattern family";
  let prof = Dialect.find_exn "mariadb" in
  let families =
    [
      ("P1.x only",
       [ Pattern_id.P1_1; Pattern_id.P1_2; Pattern_id.P1_3; Pattern_id.P1_4 ]);
      ("P2.x only", [ Pattern_id.P2_1; Pattern_id.P2_2; Pattern_id.P2_3 ]);
      ("P3.x only", [ Pattern_id.P3_1; Pattern_id.P3_2; Pattern_id.P3_3 ]);
      ("without P2.x",
       [ Pattern_id.P1_1; Pattern_id.P1_2; Pattern_id.P1_3; Pattern_id.P1_4;
         Pattern_id.P3_1; Pattern_id.P3_2; Pattern_id.P3_3 ]);
      ("without P3.x",
       [ Pattern_id.P1_1; Pattern_id.P1_2; Pattern_id.P1_3; Pattern_id.P1_4;
         Pattern_id.P2_1; Pattern_id.P2_2; Pattern_id.P2_3 ]);
      ("all ten", Pattern_id.all);
    ]
  in
  Printf.printf "target: %s (24 injected bugs)\n" prof.Dialect.id;
  List.iter
    (fun (label, patterns) ->
      let r = Soft.Soft_runner.fuzz ~patterns prof in
      Printf.printf
        "  %-14s %2d bugs   (%6d statements, %3d functions, %4d branches)\n"
        label
        (List.length r.Soft.Soft_runner.bugs)
        r.Soft.Soft_runner.cases_executed r.Soft.Soft_runner.functions_triggered
        r.Soft.Soft_runner.branches_covered)
    families;
  print_endline "literal-pool depth (P1.2 on mariadb):";
  let bugs_with_pool label pool_filter =
    let registry = Dialect.registry prof in
    let seeds = Soft.Collector.collect ~registry ~suite:prof.Dialect.seeds () in
    let detector = Soft.Detector.create prof in
    Seq.iter
      (fun (case : Soft.Patterns.case) ->
        ignore (Soft.Detector.run_case detector case))
      (Soft.Patterns.generate ~registry ~seeds Pattern_id.P1_2
      |> Seq.filter pool_filter);
    Printf.printf "  %-22s %d bugs\n" label
      (List.length (Soft.Detector.bugs detector))
  in
  bugs_with_pool "full pool" (fun _ -> true);
  bugs_with_pool "short literals only" (fun case ->
      not
        (Sqlfun_ast.Ast_util.fold_stmt_exprs
           (fun acc e ->
             acc
             ||
             match e with
             | Sqlfun_ast.Ast.Int_lit s | Sqlfun_ast.Ast.Dec_lit s ->
               String.length s >= 10
             | _ -> false)
           false case.Soft.Patterns.stmt))

(* ----- nesting-cap ablation (Finding 3's <=2 rule) ----- *)

let nesting_ablation () =
  section "Nesting cap ablation (Finding 3)";
  (* measure how many generated P3.3 statements the <=2 cap skips *)
  let prof = Dialect.find_exn "mysql" in
  let registry = Dialect.registry prof in
  let seeds = Soft.Collector.collect ~registry ~suite:prof.Dialect.seeds () in
  let deep, shallow =
    List.partition
      (fun (s : Soft.Collector.seed) ->
        Sqlfun_ast.Ast_util.count_function_exprs s.Soft.Collector.stmt > 2)
      seeds
  in
  Printf.printf
    "  seeds with > 2 function exprs (not expanded by nesting patterns): %d\n"
    (List.length deep);
  Printf.printf "  seeds expanded: %d\n" (List.length shallow)

(* ----- the Section-8 extension: correctness oracles ----- *)

let logic_oracles () =
  section "Correctness oracles (the Section 8 extension)";
  List.iter
    (fun p ->
      let r = Sqlfun_harness.Logic_oracle.run ~budget:150 p in
      Printf.printf "  %-12s %3d checks, %2d inapplicable, %d mismatches\n"
        p.Dialect.id r.Sqlfun_harness.Logic_oracle.checks
        r.Sqlfun_harness.Logic_oracle.skipped
        (List.length r.Sqlfun_harness.Logic_oracle.mismatches))
    Dialect.all;
  print_endline
    "  (TLP partitioning, NoREC re-execution and aggregate/array\n\
    \  equivalence all hold on the unfaulted engines)"

(* ----- Bechamel micro-benchmarks ----- *)

let microbenches () =
  section "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let sql = "SELECT JSON_LENGTH(REPEAT('[1,', 100), '$[2][1]')" in
  let prof = Dialect.find_exn "mariadb" in
  let engine = Dialect.make_engine prof in
  let registry = Dialect.registry prof in
  let seeds = Soft.Collector.collect ~registry ~suite:prof.Dialect.seeds () in
  let smith = Sqlfun_baselines.Sqlsmith_gen.make ~dialect:"mariadb" ~seed:7 in
  let detect_engine = Soft.Detector.create prof in
  let tests =
    [
      Test.make ~name:"parse-statement"
        (Staged.stage (fun () -> ignore (Sqlfun_parse.Parser.parse_stmt sql)));
      Test.make ~name:"execute-statement"
        (Staged.stage (fun () ->
             ignore
               (Sqlfun_engine.Engine.exec_sql engine
                  "SELECT UPPER(CONCAT('a', 'b'))")));
      Test.make ~name:"generate-100-cases"
        (Staged.stage (fun () ->
             Soft.Patterns.all_cases ~registry ~seeds
             |> Seq.take 100
             |> Seq.iter (fun _ -> ())));
      Test.make ~name:"sqlsmith-gen-print"
        (Staged.stage (fun () ->
             ignore
               (Sqlfun_ast.Sql_pp.stmt (smith.Sqlfun_baselines.Baseline.next ()))));
      Test.make ~name:"detector-roundtrip"
        (Staged.stage (fun () ->
             ignore
               (Soft.Detector.run_sql detect_engine "SELECT LENGTH('boundary')")));
    ]
  in
  let instance =
    match Toolkit.Instance.[ monotonic_clock ] with
    | i :: _ -> i
    | [] -> assert false
  in
  List.iter
    (fun test ->
      let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
      let raw = Benchmark.all cfg [ instance ] test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          instance raw
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-24s %12.0f ns/run\n" name est
          | Some _ | None -> Printf.printf "  %-24s (no estimate)\n" name)
        results)
    tests

(* ----- per-case pipeline cost of batch members ----- *)

(* What batching can recover is per-case fixed overhead outside the
   engine: case materialization, the scenario wrapper, stream
   bookkeeping. This leg times the full detector round-trip over one
   dialect's real batchable families — member-for-member the same
   statements, all interpreted — through [run_scenario] (the --no-batch
   pipeline) and through [run_batch]. Min-of-three with [Gc.compact]
   isolation like every other leg. *)
let batch_member_costs () =
  section "Per-case pipeline cost on batchable families (unbatched vs batched)";
  let prof = Dialect.find_exn "mysql" in
  let registry =
    Sqlfun_engine.Engine.registry (Dialect.make_engine prof)
  in
  let seeds =
    Soft.Collector.collect ~registry ~suite:prof.Dialect.seeds ()
  in
  (* non-batched work items are skipped below, so every pattern can be
     offered *)
  let each_batch f () =
    let det = Soft.Detector.create prof in
    let n = ref 0 in
    List.iter
      (fun p ->
        Seq.iter
          (function
            | Soft.Patterns.Single _ -> ()
            | Soft.Patterns.Batched b ->
              n := !n + Soft.Patterns.batch_size b;
              f det b)
          (Soft.Patterns.generate_work ~registry ~seeds p))
      Sqlfun_fault.Pattern_id.all;
    !n
  in
  let unbatched_leg =
    each_batch (fun det b ->
        Seq.iter
          (fun c ->
            ignore
              (Soft.Detector.run_scenario det (Soft.Patterns.stateless c)))
          (Soft.Patterns.batch_cases b))
  in
  let batched_leg = each_batch (fun det b -> Soft.Detector.run_batch det b) in
  (* host load drifts on the scale of one leg, so the two legs are
     *interleaved* — three alternating rounds, min per leg — rather
     than timed back to back; a slow phase then hits both legs instead
     of whichever ran during it *)
  let once f =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let n = f () in
    ((Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n, n)
  in
  ignore (unbatched_leg ());
  ignore (batched_leg ());
  let unb = ref infinity and bat = ref infinity and members = ref 0 in
  for _ = 1 to 3 do
    let wu, n = once unbatched_leg in
    let wb, _ = once batched_leg in
    if wu < !unb then unb := wu;
    if wb < !bat then bat := wb;
    members := n
  done;
  let unbatched_ns = !unb and batched_ns = !bat and members = !members in
  Printf.printf
    "  unbatched pipeline %8.0f ns/case\n  batched pipeline   %8.0f ns/case \
     (%.2fx, %d members, %.0f ns/case fixed overhead recovered)\n"
    unbatched_ns batched_ns
    (if batched_ns > 0. then unbatched_ns /. batched_ns else 0.)
    members (unbatched_ns -. batched_ns);
  (unbatched_ns, batched_ns)

(* The perf trajectory artifact: stage wall-times, verdict counters,
   execute-stage attribution and the coverage-growth curve of the
   exhaustive campaign, diffable across PRs. *)
let write_telemetry tel results timing obs ~member_unbatched_ns
    ~member_batched_ns =
  let path = "BENCH_telemetry.json" in
  let campaign_json (r : Soft.Soft_runner.result) =
    let wall_s =
      match
        List.find_opt
          (fun (d, _, _) -> d = r.Soft.Soft_runner.dialect.Dialect.id)
          timing.per_dialect
      with
      | Some (_, w, _) -> w
      | None -> 0.
    in
    Json.Obj
      [
        ("dialect", Json.Str r.Soft.Soft_runner.dialect.Dialect.id);
        ("wall_s", Json.Float wall_s);
        ( "ns_per_case",
          Json.Float
            (if r.Soft.Soft_runner.cases_executed = 0 then 0.
             else
               wall_s *. 1e9
               /. float_of_int r.Soft.Soft_runner.cases_executed) );
        ("cases_executed", Json.Int r.Soft.Soft_runner.cases_executed);
        ("bugs", Json.Int (List.length r.Soft.Soft_runner.bugs));
        ( "functions_triggered",
          Json.Int r.Soft.Soft_runner.functions_triggered );
        ("branches_covered", Json.Int r.Soft.Soft_runner.branches_covered);
        ( "unique_false_positives",
          Json.Int r.Soft.Soft_runner.unique_false_positives );
      ]
  in
  let snapshot =
    Json.Obj
      [
        ("schema", Json.Str "soft-telemetry/1");
        ("kind", Json.Str "bench");
        ("campaigns", Json.Arr (List.map campaign_json results));
        ("wall_s_sequential", Json.Float timing.wall_s_sequential);
        ("wall_s_plain", Json.Float timing.wall_s_plain);
        ("plain_deterministic", Json.Bool timing.plain_deterministic);
        ("cores", Json.Int timing.cores);
        ( "parallel_comparison",
          Json.Str
            (match timing.parallel with
             | Some _ -> "measured"
             | None -> "skipped_single_core") );
        ( "wall_s_parallel",
          match timing.parallel with
          | Some p -> Json.Float p.wall_s_parallel
          | None -> Json.Null );
        ( "parallel_jobs",
          match timing.parallel with
          | Some p -> Json.Int p.parallel_jobs
          | None -> Json.Null );
        ( "parallel_speedup",
          match timing.parallel with
          | Some p when p.wall_s_parallel > 0. ->
            Json.Float (timing.wall_s_sequential /. p.wall_s_parallel)
          | Some _ -> Json.Float 0.
          | None -> Json.Null );
        ( "parallel_deterministic",
          match timing.parallel with
          | Some p -> Json.Bool p.parallel_deterministic
          | None -> Json.Null );
        ("wall_s_nocompact", Json.Float timing.wall_s_nocompact);
        ( "compact_speedup",
          Json.Float
            (if timing.wall_s_plain > 0. then
               timing.wall_s_nocompact /. timing.wall_s_plain
             else 0.) );
        ("compact_deterministic", Json.Bool timing.compact_deterministic);
        (* the batched before/after: wall_s_nobatch is the plain leg
           (every pinned leg runs the per-case pipeline, so it is the
           like-for-like unbatched baseline). Only ~30% of the
           sweep is batchable, so the sweep-wide ratio sits near the
           host's noise floor; the member-level pair below times the
           same batchable statements through both detector pipelines,
           which is where the recovered fixed overhead is actually
           visible — fixed_overhead_ns is that member-level delta *)
        ("wall_s_nobatch", Json.Float timing.wall_s_plain);
        ("wall_s_batch", Json.Float timing.wall_s_batch);
        ( "batch_speedup",
          Json.Float
            (if timing.wall_s_batch > 0. then
               timing.wall_s_plain /. timing.wall_s_batch
             else 0.) );
        ("ns_per_case_member_unbatched", Json.Float member_unbatched_ns);
        ("ns_per_case_member_batched", Json.Float member_batched_ns);
        ( "batch_member_speedup",
          Json.Float
            (if member_batched_ns > 0. then
               member_unbatched_ns /. member_batched_ns
             else 0.) );
        ( "fixed_overhead_ns",
          Json.Float (member_unbatched_ns -. member_batched_ns) );
        ("batch_deterministic", Json.Bool timing.batch_deterministic);
        ( "batch",
          Json.Obj
            [
              ("flushes", Json.Int timing.batch_flushes);
              ("cases", Json.Int timing.batch_cases);
            ] );
        ("wall_s_stateful", Json.Float timing.wall_s_stateful);
        ("scenarios_executed", Json.Int timing.stateful_scenarios);
        ("prereq_statements", Json.Int timing.stateful_prereqs);
        ( "stateful_verdict_stages",
          Json.Obj
            [
              ("parse", Json.Int timing.stateful_stages.Soft.Detector.parse);
              ( "execute",
                Json.Int timing.stateful_stages.Soft.Detector.execute );
              ( "storage",
                Json.Int timing.stateful_stages.Soft.Detector.storage );
            ] );
        (* the top-10 hottest dialect x function keys of the eager
           ("boxed") sweep, with the self-time the same key costs once
           compact representations are on — the per-function receipt for
           the compact_speedup headline *)
        ( "hot_functions_self_ms",
          Json.Arr
            (List.map
               (fun (ft : Profile.fn_total) ->
                 let self_ms p =
                   let ns =
                     List.fold_left
                       (fun acc (r : Profile.row) ->
                         if
                           r.Profile.r_dialect = ft.Profile.ft_dialect
                           && r.Profile.r_func = ft.Profile.ft_func
                         then acc + r.Profile.r_self_ns
                         else acc)
                       0 (Profile.rows p)
                   in
                   float_of_int ns /. 1e6
                 in
                 let before = float_of_int ft.Profile.ft_self_ns /. 1e6 in
                 let after = self_ms timing.prof_compact in
                 Json.Obj
                   [
                     ("dialect", Json.Str ft.Profile.ft_dialect);
                     ("func", Json.Str ft.Profile.ft_func);
                     ("self_ms_boxed", Json.Float before);
                     ("self_ms_compact", Json.Float after);
                     ( "speedup",
                       Json.Float (if after > 0. then before /. after else 0.)
                     );
                   ])
               (Profile.hottest ~n:10 timing.prof_boxed)) );
        ("stages", Telemetry.stages_to_json tel);
        ("verdicts", Telemetry.verdicts_to_json tel);
        ("compact", Telemetry.compact_to_json tel);
        ("attribution", Profile.to_json ~top:10 obs.obs_profile);
        ( "coverage_curve",
          Json.Arr
            (List.map
               (fun (c, b) ->
                 Json.Obj [ ("cases", Json.Int c); ("branches", Json.Int b) ])
               obs.obs_curve) );
        ( "coverage_curve_final_matches",
          Json.Bool
            (let total_cases =
               List.fold_left
                 (fun acc (r : Soft.Soft_runner.result) ->
                   acc + r.Soft.Soft_runner.cases_executed)
                 0 results
             and total_branches =
               List.fold_left
                 (fun acc (r : Soft.Soft_runner.result) ->
                   acc + r.Soft.Soft_runner.branches_covered)
                 0 results
             in
             match List.rev obs.obs_curve with
             | (c, b) :: _ -> c = total_cases && b = total_branches
             | [] -> false) );
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string snapshot);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "\nstage timings, attribution and coverage curve written to %s\n" path

let () =
  study_tables ();
  pattern_tables ();
  let tel = Telemetry.create () in
  let results, timing, obs = campaign tel in
  comparison ();
  ablations ();
  nesting_ablation ();
  logic_oracles ();
  (try microbenches ()
   with e -> Printf.printf "(micro-benchmarks skipped: %s)\n" (Printexc.to_string e));
  let member_unbatched_ns, member_batched_ns = batch_member_costs () in
  write_telemetry tel results timing obs ~member_unbatched_ns
    ~member_batched_ns;
  print_newline ();
  print_endline "bench: all tables and figures regenerated."
