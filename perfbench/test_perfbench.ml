(* The benchmark's own tests: the traced runner runs the program the
   untraced one measures (equal verdict digests on every workload
   shape), and the trace accounts for its whole wall time. *)

open Perfbench
open Sqlfun_dialects

let prof = Dialect.find_exn "mariadb"

let digest_of (v : Sweep.verdicts) =
  Printf.sprintf "%d cases, %d bugs, %d branches, %s" v.Sweep.cases
    v.Sweep.bugs v.Sweep.branches v.Sweep.digest

let traced ~budget ~jobs w =
  let tr = Trace.create () in
  let l = Sweep.new_layers () in
  let results = Sweep.traced ~budget ~jobs w tr l [ prof ] in
  Trace.finish tr;
  let v =
    match results with
    | [ (_, Ok v) ] -> v
    | [ (_, Error e) ] -> Alcotest.failf "traced campaign raised: %s" e
    | _ -> Alcotest.fail "one campaign expected"
  in
  (tr, l, v)

let untraced ~budget ~jobs w =
  Sweep.verdicts_of_result (Sweep.fuzz ~budget ~jobs w prof)

let same_digest name ~budget ~jobs w () =
  let _, l, v = traced ~budget ~jobs w in
  Alcotest.(check string)
    (name ^ ": traced = Soft_runner.fuzz")
    (digest_of (untraced ~budget ~jobs w))
    (digest_of v);
  Alcotest.(check int) "every case counted" v.Sweep.cases l.Sweep.cases

(* The sharded campaign's verdicts equal a sequential traced run of the
   same stream, so its pinned digest does not depend on the host's
   core count. *)
let sharded_equals_sequential () =
  let budget = 3000 in
  let tr = Trace.create () in
  let l = Sweep.new_layers () in
  let seq =
    Sweep.traced_sequential tr l ~budget ~patterns:Sqlfun_fault.Pattern_id.all
      ~stateful:true prof
  in
  Alcotest.(check string)
    "2 shards = sequential" (digest_of seq)
    (digest_of (untraced ~budget ~jobs:2 Sweep.Default_sharded))

let self_times_add_up w ~jobs () =
  let tr, _, _ = traced ~budget:2000 ~jobs w in
  let self =
    List.fold_left (fun acc (_, ns) -> acc + ns) 0 (Trace.self_by_name tr)
  in
  Alcotest.(check int)
    "self times + unattributed = wall" (Trace.wall_ns tr)
    (self + Trace.unattributed_ns tr);
  List.iter
    (fun (name, ns) ->
      if ns < 0 then Alcotest.failf "negative self time for %s" name)
    (Trace.self_by_name tr)

let layer_metrics_present () =
  let tr, l, _ = traced ~budget:2000 ~jobs:1 Sweep.Stateless_sweep in
  let m = Sweep.layer_metrics ~jobs:1 tr l in
  List.iter
    (fun name ->
      if not (List.exists (fun (n, _, _) -> n = name) m) then
        Alcotest.failf "missing metric %s" name)
    [
      "collector.collect_ms"; "patterns.generate_ms"; "detector.run_batch_ms";
      "detector.case_p99_ns"; "engine.eval_fn_ms"; "gc.alloc_bytes_per_case";
      "soft_runner.shard_busy_share"; "trace.unattributed_ms";
    ];
  let value name =
    let _, v, _ = List.find (fun (n, _, _) -> n = name) m in
    v
  in
  Alcotest.(check bool) "batches seen" true (value "patterns.batches" > 0.);
  Alcotest.(check bool)
    "busy share within (0, 1]" true
    (value "soft_runner.shard_busy_share" > 0.
    && value "soft_runner.shard_busy_share" <= 1.)

(* Synthetic spans with known self times. *)
let nested_self_time () =
  let tr = Trace.create () in
  let spin ns =
    let t0 = Trace.now_ns () in
    while Trace.now_ns () - t0 < ns do
      ()
    done
  in
  Trace.with_span tr "outer" (fun () ->
      spin 200_000;
      let g = Trace.group ~keep:true tr "leaf" in
      for _ = 1 to 3 do
        Trace.timed g (fun () -> spin 100_000)
      done;
      Trace.with_span tr "inner" (fun () -> spin 100_000));
  Trace.finish tr;
  let outer = Trace.self_ns tr "outer" and leaf = Trace.self_ns tr "leaf" in
  Alcotest.(check int) "leaf count" 3 (Trace.count tr "leaf");
  Alcotest.(check bool) "leaf self time" true (leaf >= 300_000);
  Alcotest.(check bool)
    "outer excludes children" true
    (outer >= 200_000 && outer < 200_000 + leaf);
  let d = Trace.durations tr [ "leaf" ] in
  Alcotest.(check int) "durations kept" 3 (Array.length d);
  Alcotest.(check int) "max is the top percentile" d.(2) (Trace.percentile d 100.)

let percentiles () =
  let a = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "p50" 50 (Trace.percentile a 50.);
  Alcotest.(check int) "p99" 99 (Trace.percentile a 99.);
  Alcotest.(check int) "p100" 100 (Trace.percentile a 100.);
  Alcotest.(check int) "empty" 0 (Trace.percentile [||] 50.)

let () =
  Alcotest.run "perfbench"
    [
      ( "digest",
        [
          Alcotest.test_case "stateless" `Quick
            (same_digest "stateless" ~budget:3000 ~jobs:1 Sweep.Stateless_sweep);
          Alcotest.test_case "scenarios only" `Quick
            (same_digest "scenarios" ~budget:1500 ~jobs:1 Sweep.Scenario_sweep);
          Alcotest.test_case "sharded, 2 shards" `Quick
            (same_digest "sharded" ~budget:3000 ~jobs:2 Sweep.Default_sharded);
          Alcotest.test_case "sharded = sequential" `Quick
            sharded_equals_sequential;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self times add up, stateless" `Quick
            (self_times_add_up Sweep.Stateless_sweep ~jobs:1);
          Alcotest.test_case "self times add up, scenarios" `Quick
            (self_times_add_up Sweep.Scenario_sweep ~jobs:1);
          Alcotest.test_case "self times add up, sharded" `Quick
            (self_times_add_up Sweep.Default_sharded ~jobs:2);
          Alcotest.test_case "layer metrics" `Quick layer_metrics_present;
          Alcotest.test_case "nested self time" `Quick nested_self_time;
          Alcotest.test_case "percentiles" `Quick percentiles;
        ] );
    ]
