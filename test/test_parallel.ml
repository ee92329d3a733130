(* The parallel layer and the determinism contract of sharded campaigns.

   The load-bearing property is at the bottom: a campaign sharded across
   4 worker domains must produce verdict counters, bug lists (order and
   case numbers included) and FP-signature sets bit-identical to the
   one-shard run, and every shard/job combination must equal a plain
   sequential loop kept in this file. Everything above it tests the
   pieces that property is assembled from — the domain map, the budget
   split, and the merge algebra on coverage and telemetry. *)

module Coverage = Sqlfun_coverage.Coverage
module Telemetry = Sqlfun_telemetry.Telemetry
open Sqlfun_dialects

(* ----- Sqlfun_parallel.map: the domain pool the runner fans out on ----- *)

let test_map_keeps_input_order () =
  (* none spawned, and 3 or 8 domains sharing the cursor *)
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "results in input order at jobs=%d" jobs)
        (List.init 100 (fun i -> i * i))
        (Sqlfun_parallel.map ~jobs (fun i -> i * i) (List.init 100 Fun.id)))
    [ 1; 3; 8 ]

let test_map_drains_at_any_job_count () =
  (* every item runs exactly once, whether the domains are fewer than,
     as many as or more than the items, and on an empty list *)
  List.iter
    (fun (jobs, n) ->
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      let results =
        Sqlfun_parallel.map ~jobs
          (fun i ->
            Atomic.incr runs.(i);
            i)
          (List.init n Fun.id)
      in
      Alcotest.(check int)
        (Printf.sprintf "one result per item at jobs=%d n=%d" jobs n)
        n (List.length results);
      Array.iteri
        (fun i r ->
          Alcotest.(check int)
            (Printf.sprintf "item %d ran once at jobs=%d n=%d" i jobs n)
            1 (Atomic.get r))
        runs)
    [ (1, 50); (2, 50); (3, 50); (8, 50); (8, 3); (4, 1); (3, 0) ]

let test_map_runs_every_item_before_raising () =
  (* the items that do not fail take a while, so at jobs=3 some are
     still running on spawned domains when item 5 fails; if [map]
     re-raised before joining, their completions would not be counted *)
  List.iter
    (fun jobs ->
      let finished = Atomic.make 0 in
      Alcotest.check_raises
        (Printf.sprintf "the first failure in input order at jobs=%d" jobs)
        (Failure "5") (fun () ->
          ignore
            (Sqlfun_parallel.map ~jobs
               (fun i ->
                 if i = 5 || i = 50 then failwith (string_of_int i);
                 let t0 = Sys.time () in
                 while Sys.time () -. t0 < 0.001 do () done;
                 Atomic.incr finished)
               (List.init 100 Fun.id)));
      Alcotest.(check int) "every other item finished" 98
        (Atomic.get finished))
    [ 1; 3 ]

(* ----- split_budget (satellite a) ----- *)

let test_split_budget_exact () =
  let check b n =
    let shares = Soft.Soft_runner.split_budget b n in
    Alcotest.(check int)
      (Printf.sprintf "n entries (b=%d n=%d)" b n)
      n (List.length shares);
    Alcotest.(check int)
      (Printf.sprintf "shares sum to budget (b=%d n=%d)" b n)
      b
      (List.fold_left ( + ) 0 shares);
    (* remainder spread: entries differ by at most one, larger first *)
    List.iter
      (fun s ->
        Alcotest.(check bool) "share within one of b/n" true
          (s = (b / n) || s = (b / n) + 1))
      shares;
    Alcotest.(check bool) "larger shares first" true
      (List.sort (fun a b -> compare b a) shares = shares)
  in
  check 10 10;
  check 9 10;
  check 11 10;
  check 2005 10;
  check 3 7;
  check 0 5;
  Alcotest.(check (list int)) "n=0 is empty" [] (Soft.Soft_runner.split_budget 5 0)

let test_split_budget_qcheck () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"split_budget sums to budget"
       QCheck.(pair (int_bound 100_000) (int_range 1 64))
       (fun (b, n) ->
         let shares = Soft.Soft_runner.split_budget b n in
         List.length shares = n && List.fold_left ( + ) 0 shares = b))

let test_budgeted_campaign_executes_exact_budget () =
  (* the end-to-end view of satellite (a): a budget smaller than, equal
     to, and not divisible by the pattern count all execute exactly
     [budget] generated cases (seed replays are on top, so compare
     against the unbudgeted seed count) *)
  let prof = Dialect.find_exn "mariadb" in
  let seed_replays =
    (Soft.Soft_runner.fuzz ~budget:0 prof).Soft.Soft_runner.cases_executed
  in
  List.iter
    (fun budget ->
      let r = Soft.Soft_runner.fuzz ~budget prof in
      Alcotest.(check int)
        (Printf.sprintf "budget %d executes exactly" budget)
        (seed_replays + budget)
        r.Soft.Soft_runner.cases_executed)
    [ 3; 10; 2005 ]

(* ----- merge algebra (satellite c) ----- *)

let mk_cov points =
  let c = Coverage.create () in
  List.iter (fun (p, hits) -> for _ = 1 to hits do Coverage.hit c p done) points;
  c

let cov_gen =
  QCheck.Gen.(
    map mk_cov
      (list_size (int_bound 8)
         (pair (map (Printf.sprintf "pt%d") (int_bound 5)) (int_range 1 4))))

let test_coverage_merge_algebra () =
  let eq a b = Coverage.points a = Coverage.points b in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"coverage merge commutative"
       (QCheck.make QCheck.Gen.(pair cov_gen cov_gen))
       (fun (a, b) -> eq (Coverage.merge a b) (Coverage.merge b a)));
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"coverage merge associative"
       (QCheck.make QCheck.Gen.(triple cov_gen cov_gen cov_gen))
       (fun (a, b, c) ->
         eq
           (Coverage.merge (Coverage.merge a b) c)
           (Coverage.merge a (Coverage.merge b c))));
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"fresh recorder is identity"
       (QCheck.make cov_gen)
       (fun a ->
         eq (Coverage.merge a (Coverage.create ())) a
         && eq (Coverage.merge (Coverage.create ()) a) a))

(* a telemetry collector is observed through its two aggregate views *)
let tel_view t = (Telemetry.stage_timings t, Telemetry.verdict_rows t)

let mk_tel spec =
  let t = Telemetry.create () in
  List.iter
    (fun (stage, dur, verdict) ->
      Telemetry.record_stage t ~stage dur;
      Telemetry.count_verdict t ~dialect:"d" ~pattern:stage ~case_number:1
        verdict)
    spec;
  t

let tel_gen =
  QCheck.Gen.(
    map mk_tel
      (list_size (int_bound 8)
         (triple
            (map (Printf.sprintf "s%d") (int_bound 3))
            (int_range 1 1_000_000)
            (oneofl Telemetry.verdict_classes))))

let test_telemetry_merge_algebra () =
  let eq a b = tel_view a = tel_view b in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"telemetry merge commutative"
       (QCheck.make QCheck.Gen.(pair tel_gen tel_gen))
       (fun (a, b) -> eq (Telemetry.merge a b) (Telemetry.merge b a)));
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"telemetry merge associative"
       (QCheck.make QCheck.Gen.(triple tel_gen tel_gen tel_gen))
       (fun (a, b, c) ->
         eq
           (Telemetry.merge (Telemetry.merge a b) c)
           (Telemetry.merge a (Telemetry.merge b c))));
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"fresh collector is identity"
       (QCheck.make tel_gen)
       (fun a ->
         eq (Telemetry.merge a (Telemetry.create ())) a
         && eq (Telemetry.merge (Telemetry.create ()) a) a))

let test_reclassify_verdict () =
  let t = Telemetry.create () in
  Telemetry.count_verdict t ~dialect:"d" ~pattern:"p" ~case_number:1
    Telemetry.New_bug;
  Telemetry.reclassify_verdict t ~dialect:"d" ~pattern:"p"
    ~from_:Telemetry.New_bug ~to_:Telemetry.Dup_bug;
  let row =
    List.find
      (fun (r : Telemetry.verdict_counts) -> r.Telemetry.pattern = "p")
      (Telemetry.verdict_rows t)
  in
  Alcotest.(check int) "New_bug drained" 0
    (List.assoc Telemetry.New_bug row.Telemetry.by_class);
  Alcotest.(check int) "Dup_bug gained" 1
    (List.assoc Telemetry.Dup_bug row.Telemetry.by_class);
  Alcotest.check_raises "underflow rejected"
    (Invalid_argument
       "Telemetry.reclassify_verdict: no new_bug verdict recorded for d/p")
    (fun () ->
      Telemetry.reclassify_verdict t ~dialect:"d" ~pattern:"p"
        ~from_:Telemetry.New_bug ~to_:Telemetry.Dup_bug)

(* ----- campaign determinism (tentpole + satellites c/d) ----- *)

let bug_key (b : Soft.Detector.found_bug) =
  ( b.Soft.Detector.spec.Sqlfun_fault.Fault.site,
    b.Soft.Detector.case_number,
    b.Soft.Detector.found_by,
    b.Soft.Detector.poc )

(* every deterministic field of a campaign result, hit counts included *)
let result_key (r : Soft.Soft_runner.result) =
  ( ( r.Soft.Soft_runner.seeds_collected,
      r.Soft.Soft_runner.positions,
      r.Soft.Soft_runner.cases_executed,
      r.Soft.Soft_runner.passed,
      r.Soft.Soft_runner.clean_errors ),
    ( r.Soft.Soft_runner.false_positives,
      r.Soft.Soft_runner.unique_false_positives,
      r.Soft.Soft_runner.fp_signatures,
      r.Soft.Soft_runner.known_crashes ),
    ( r.Soft.Soft_runner.scenarios_executed,
      r.Soft.Soft_runner.prereq_statements,
      r.Soft.Soft_runner.stage_verdicts ),
    ( List.map bug_key r.Soft.Soft_runner.bugs,
      r.Soft.Soft_runner.functions_triggered,
      r.Soft.Soft_runner.branches_covered,
      Coverage.points r.Soft.Soft_runner.coverage ) )

let verdict_key tel =
  List.map
    (fun (r : Telemetry.verdict_counts) ->
      (r.Telemetry.dialect, r.Telemetry.pattern, r.Telemetry.by_class))
    (Telemetry.verdict_rows tel)

(* The sequential campaign written out as a plain loop, outside the
   runner: collect, arm, replay the seeds, then every generated case of
   each pattern in order, unbudgeted and unbatched. *)
let reference_campaign prof patterns =
  let registry = Dialect.registry prof in
  let seeds = Soft.Collector.collect ~registry ~suite:prof.Dialect.seeds () in
  let tel = Telemetry.create () in
  let det = Soft.Detector.create ~telemetry:tel prof in
  List.iter
    (fun (seed : Soft.Collector.seed) ->
      ignore (Soft.Detector.run_stmt det seed.Soft.Collector.stmt))
    seeds;
  List.iter
    (fun p ->
      Seq.iter
        (fun case -> ignore (Soft.Detector.run_case det case))
        (Soft.Patterns.generate ~registry ~seeds p))
    patterns;
  (det, tel)

let test_shards_one_equals_sequential () =
  (* P1.2 runs as family batches, P3.3 case by case; the campaign body
     must agree with the plain loop at one shard, at several shards on
     the calling domain alone, and on spawned domains *)
  let prof = Dialect.find_exn "mariadb" in
  let patterns = Sqlfun_fault.Pattern_id.[ P1_2; P3_3 ] in
  let det, tel = reference_campaign prof patterns in
  Alcotest.(check bool) "the reference loop finds bugs" true
    (Soft.Detector.bugs det <> []);
  let counters =
    Soft.Detector.
      ( executed det,
        passed det,
        clean_errors det,
        false_positives det,
        known_crashes det )
  in
  List.iter
    (fun (shards, jobs) ->
      let r =
        Soft.Soft_runner.fuzz ~patterns ~stateful:false ~shards ~jobs prof
      in
      let leg what = Printf.sprintf "%s at shards=%d jobs=%d" what shards jobs in
      Alcotest.(check bool) (leg "counters") true
        (counters
        = Soft.Soft_runner.
            ( r.cases_executed,
              r.passed,
              r.clean_errors,
              r.false_positives,
              r.known_crashes ));
      Alcotest.(check bool) (leg "bug lists, order and case numbers") true
        (List.map bug_key (Soft.Detector.bugs det)
        = List.map bug_key r.Soft.Soft_runner.bugs);
      Alcotest.(check (list string)) (leg "FP signatures")
        (Soft.Detector.fp_signatures det) r.Soft.Soft_runner.fp_signatures;
      Alcotest.(check bool) (leg "hit-counted coverage") true
        (Coverage.points (Soft.Detector.coverage det)
        = Coverage.points r.Soft.Soft_runner.coverage);
      Alcotest.(check bool) (leg "verdict counters") true
        (verdict_key tel = verdict_key r.Soft.Soft_runner.telemetry);
      Alcotest.(check bool) (leg "P1.2 ran as batches") true
        ((Telemetry.batch_counts r.Soft.Soft_runner.telemetry)
           .Telemetry.b_cases > 0))
    [ (1, 1); (3, 1); (2, 2) ]

let test_sharded_campaign_deterministic () =
  (* the ISSUE's gating regression: jobs=1/shards=1 vs jobs=4/shards=4
     on a real campaign — identical verdict counters, identical bug
     lists (order and case numbers included), identical FP signatures *)
  let prof = Dialect.find_exn "mysql" in
  let seq = Soft.Soft_runner.fuzz ~budget:4000 ~shards:1 ~jobs:1 prof in
  let par = Soft.Soft_runner.fuzz ~budget:4000 ~shards:4 ~jobs:4 prof in
  Alcotest.(check bool) "bugs found" true (seq.Soft.Soft_runner.bugs <> []);
  Alcotest.(check (list (triple string int (option string))))
    "bug lists identical, order included"
    (List.map
       (fun (b : Soft.Detector.found_bug) ->
         ( b.Soft.Detector.spec.Sqlfun_fault.Fault.site,
           b.Soft.Detector.case_number,
           Option.map Sqlfun_fault.Pattern_id.to_string b.Soft.Detector.found_by ))
       seq.Soft.Soft_runner.bugs)
    (List.map
       (fun (b : Soft.Detector.found_bug) ->
         ( b.Soft.Detector.spec.Sqlfun_fault.Fault.site,
           b.Soft.Detector.case_number,
           Option.map Sqlfun_fault.Pattern_id.to_string b.Soft.Detector.found_by ))
       par.Soft.Soft_runner.bugs);
  Alcotest.(check (list string))
    "unique FP signatures identical" seq.Soft.Soft_runner.fp_signatures
    par.Soft.Soft_runner.fp_signatures;
  Alcotest.(check bool) "all result fields agree" true
    (result_key seq = result_key par);
  Alcotest.(check bool) "verdict counters identical" true
    (verdict_key seq.Soft.Soft_runner.telemetry
    = verdict_key par.Soft.Soft_runner.telemetry)

let test_more_shards_than_jobs () =
  (* jobs < shards exercises workers that own several shards *)
  let prof = Dialect.find_exn "postgresql" in
  let seq = Soft.Soft_runner.fuzz ~budget:1200 prof in
  let par = Soft.Soft_runner.fuzz ~budget:1200 ~shards:7 ~jobs:2 prof in
  Alcotest.(check bool) "7 shards on 2 workers matches sequential" true
    (result_key seq = result_key par)

let test_stateful_sharded_deterministic () =
  (* the stateful gating regression: a scenario is one atomic work item,
     so sequential vs jobs=2/shards=2 must agree on every deterministic
     field — scenario counters and per-stage verdict attribution
     included — and the campaign must surface verdicts from all three
     occurrence stages *)
  let prof = Dialect.find_exn "duckdb" in
  let seq = Soft.Soft_runner.fuzz ~budget:2000 ~shards:1 ~jobs:1 prof in
  let par = Soft.Soft_runner.fuzz ~budget:2000 ~shards:2 ~jobs:2 prof in
  Alcotest.(check bool) "scenarios ran" true
    (seq.Soft.Soft_runner.scenarios_executed > 0);
  let sv = seq.Soft.Soft_runner.stage_verdicts in
  Alcotest.(check bool) "parse-stage verdicts surfaced" true
    (sv.Soft.Detector.parse > 0);
  Alcotest.(check bool) "execute-stage verdicts surfaced" true
    (sv.Soft.Detector.execute > 0);
  Alcotest.(check bool) "storage-stage verdicts surfaced" true
    (sv.Soft.Detector.storage > 0);
  Alcotest.(check bool) "sharded stateful run matches sequential" true
    (result_key seq = result_key par);
  Alcotest.(check bool) "verdict counters agree" true
    (verdict_key seq.Soft.Soft_runner.telemetry
    = verdict_key par.Soft.Soft_runner.telemetry)

let test_batched_sharded_deterministic () =
  (* the batch gating regression: a family batch is split by member
     across shards along the per-case round-robin, so batch-on at any
     jobs/shards combination must match the batch-off sequential run on
     every result field — and batches must actually execute on the
     sharded legs for the check to mean anything *)
  let prof = Dialect.find_exn "clickhouse" in
  let baseline = Soft.Soft_runner.fuzz ~budget:3000 ~batch:false prof in
  List.iter
    (fun (shards, jobs) ->
      let r =
        Soft.Soft_runner.fuzz ~budget:3000 ~batch:true ~shards ~jobs prof
      in
      Alcotest.(check bool)
        (Printf.sprintf "batch-on shards=%d jobs=%d matches batch-off"
           shards jobs)
        true
        (result_key baseline = result_key r);
      Alcotest.(check bool) "verdict counters agree" true
        (verdict_key baseline.Soft.Soft_runner.telemetry
        = verdict_key r.Soft.Soft_runner.telemetry);
      let bc =
        Sqlfun_telemetry.Telemetry.batch_counts r.Soft.Soft_runner.telemetry
      in
      Alcotest.(check bool) "batches executed" true
        (bc.Sqlfun_telemetry.Telemetry.b_cases > 0))
    [ (1, 1); (3, 2); (4, 4) ]

let test_timeseries_final_snapshot_shard_invariant () =
  (* the campaign-final timeseries snapshot (shard = -1) is computed
     from the deterministically merged totals, so its
     determinism-relevant fields must be identical at any shard/job
     count — only rates and timestamps may differ *)
  let module Timeseries = Sqlfun_telemetry.Timeseries in
  let final_of shards jobs =
    let captured = ref None in
    let cfg =
      {
        Timeseries.every_cases = 500;
        every_ms = 0;
        emit =
          (fun s -> if s.Timeseries.shard = -1 then captured := Some s);
      }
    in
    let prof = Dialect.find_exn "mariadb" in
    let r = Soft.Soft_runner.fuzz ~budget:2000 ~timeseries:cfg ~shards ~jobs prof in
    match !captured with
    | Some s -> (r, s)
    | None -> Alcotest.fail "campaign-final snapshot never emitted"
  in
  let r_seq, seq = final_of 1 1 in
  let _, par = final_of 3 3 in
  let key (s : Timeseries.snapshot) =
    ( s.Timeseries.cases,
      s.Timeseries.branches,
      s.Timeseries.functions,
      s.Timeseries.new_bugs,
      s.Timeseries.dup_bugs )
  in
  Alcotest.(check (list int)) "final snapshot shard-invariant"
    (let (a, b, c, d, e) = key seq in [ a; b; c; d; e ])
    (let (a, b, c, d, e) = key par in [ a; b; c; d; e ]);
  Alcotest.(check int) "final cases = campaign total"
    r_seq.Soft.Soft_runner.cases_executed seq.Timeseries.cases;
  Alcotest.(check int) "final branches = campaign total"
    r_seq.Soft.Soft_runner.branches_covered seq.Timeseries.branches;
  Alcotest.(check int) "final new_bugs = campaign total"
    (List.length r_seq.Soft.Soft_runner.bugs) seq.Timeseries.new_bugs;
  (* the sharded final also accounts every executed case to a shard *)
  Alcotest.(check int) "shard_cases sums to cases" par.Timeseries.cases
    (Array.fold_left ( + ) 0 par.Timeseries.shard_cases)

let test_fuzz_all_parallel_deterministic () =
  let seq = Soft.Soft_runner.fuzz_all ~budget:400 () in
  let par = Soft.Soft_runner.fuzz_all ~budget:400 ~jobs:4 ~shards:2 () in
  List.iter2
    (fun (a : Soft.Soft_runner.result) b ->
      Alcotest.(check bool)
        (a.Soft.Soft_runner.dialect.Dialect.id ^ " campaign identical")
        true
        (result_key a = result_key b))
    seq par

exception Snapshot_failed

let test_raising_worker_does_not_hang () =
  (* every worker raises from its first snapshot; the campaign must
     re-raise that exception instead of waiting on a dead worker *)
  let cfg =
    {
      Sqlfun_telemetry.Timeseries.every_cases = 1;
      every_ms = 0;
      emit = (fun _ -> raise Snapshot_failed);
    }
  in
  (* at jobs=1 both shards run, and raise, on the calling domain *)
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "fuzz re-raises the worker's exception at jobs=%d" jobs)
        Snapshot_failed (fun () ->
          ignore
            (Soft.Soft_runner.fuzz ~budget:200 ~timeseries:cfg ~shards:2 ~jobs
               (Dialect.find_exn "mariadb"))))
    [ 2; 1 ]

let test_budget_cuts_mid_family () =
  (* small budgets cut the batched families part-way (duckdb's P1.1 is
     one 41-member family and gets a ceil(b/11) share of an 11-stream
     budget), so shards see slices of cut batches; duckdb finds bugs in
     batched families (P1.3, P1.4) within such budgets. Every
     deterministic output, coverage hit counts included, must still
     equal the sequential run's. *)
  let prof = Dialect.find_exn "duckdb" in
  let registry = Dialect.registry prof in
  let seeds =
    Soft.Collector.collect ~registry ~suite:prof.Dialect.seeds ()
  in
  let family =
    match Seq.uncons (Soft.Patterns.generate_work ~registry ~seeds
                        Sqlfun_fault.Pattern_id.P1_1) with
    | Some (Soft.Patterns.Batched b, _) -> Soft.Patterns.batch_size b
    | _ -> Alcotest.fail "P1.1 does not start with a family batch"
  in
  let sequential = Hashtbl.create 16 in
  let seq_run budget =
    match Hashtbl.find_opt sequential budget with
    | Some r -> r
    | None ->
      let r = Soft.Soft_runner.fuzz ~budget prof in
      Hashtbl.add sequential budget r;
      r
  in
  let key (r : Soft.Soft_runner.result) =
    (result_key r, verdict_key r.Soft.Soft_runner.telemetry)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:30 ~name:"budget cut mid-family"
       QCheck.(
         triple (int_range 12 (11 * (family - 1))) (oneofl [ 2; 3; 5 ])
           (oneofl [ 1; 2; 3 ]))
       (fun (budget, shards, jobs) ->
         assert (List.hd (Soft.Soft_runner.split_budget budget 11) < family);
         key (seq_run budget)
         = key (Soft.Soft_runner.fuzz ~budget ~shards ~jobs prof)))

let suite =
  ( "parallel",
    [
      Alcotest.test_case "pool runs jobs in order" `Quick
        test_map_keeps_input_order;
      Alcotest.test_case "pool drains at any job count" `Quick
        test_map_drains_at_any_job_count;
      Alcotest.test_case "map runs all before re-raising" `Quick
        test_map_runs_every_item_before_raising;
      Alcotest.test_case "split_budget exact" `Quick test_split_budget_exact;
      Alcotest.test_case "split_budget qcheck" `Quick test_split_budget_qcheck;
      Alcotest.test_case "budget executed exactly" `Slow
        test_budgeted_campaign_executes_exact_budget;
      Alcotest.test_case "coverage merge algebra" `Quick
        test_coverage_merge_algebra;
      Alcotest.test_case "telemetry merge algebra" `Quick
        test_telemetry_merge_algebra;
      Alcotest.test_case "reclassify verdict" `Quick test_reclassify_verdict;
      Alcotest.test_case "shards=1 equals sequential" `Slow
        test_shards_one_equals_sequential;
      Alcotest.test_case "4-shard campaign deterministic" `Slow
        test_sharded_campaign_deterministic;
      Alcotest.test_case "more shards than jobs" `Slow
        test_more_shards_than_jobs;
      Alcotest.test_case "stateful campaign shard-deterministic" `Slow
        test_stateful_sharded_deterministic;
      Alcotest.test_case "batched campaign shard-deterministic" `Slow
        test_batched_sharded_deterministic;
      Alcotest.test_case "timeseries final snapshot shard-invariant" `Slow
        test_timeseries_final_snapshot_shard_invariant;
      Alcotest.test_case "parallel fuzz_all deterministic" `Slow
        test_fuzz_all_parallel_deterministic;
      Alcotest.test_case "raising worker does not hang" `Quick
        test_raising_worker_does_not_hang;
      Alcotest.test_case "budget cuts mid-family" `Slow
        test_budget_cuts_mid_family;
    ] )
