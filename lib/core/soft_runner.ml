open Sqlfun_fault
open Sqlfun_dialects
module Coverage = Sqlfun_coverage.Coverage
module Telemetry = Sqlfun_telemetry.Telemetry
module Profile = Sqlfun_telemetry.Profile
module Timeseries = Sqlfun_telemetry.Timeseries
module Pool = Sqlfun_parallel.Pool
module Progress = Sqlfun_parallel.Progress
module Value = Sqlfun_value.Value

type result = {
  dialect : Dialect.profile;
  seeds_collected : int;
  positions : int;
  cases_executed : int;
  scenarios_executed : int;
  prereq_statements : int;
  stage_verdicts : Detector.stage_counts;
  passed : int;
  clean_errors : int;
  false_positives : int;
  unique_false_positives : int;
  fp_signatures : string list;
  known_crashes : int;
  bugs : Detector.found_bug list;
  functions_triggered : int;
  branches_covered : int;
  timings : Telemetry.stage_timing list;
  coverage : Coverage.t;
  telemetry : Telemetry.t;
  profile : Profile.t;
}

(* An explicit budget is split across the requested patterns so a
   bounded campaign still exercises every pattern family (the paper's
   full enumeration corresponds to no budget). The remainder of the
   division goes to the first [b mod n] patterns, one case each, so the
   shares always sum to exactly [b] — plain [b / n] would silently
   under-run by up to [n - 1] cases, and a budget smaller than the
   pattern count used to degrade to one case per pattern (overrunning
   the budget). *)
let split_budget b n =
  if n <= 0 then []
  else begin
    let base = b / n and extra = b mod n in
    List.init n (fun i -> if i < extra then base + 1 else base)
  end

(* [drain_share emit works n] forces work items through [emit] until
   exactly [n] cases have been emitted; returns how many were emitted
   and the unconsumed rest of the stream ([None] when the stream ran
   dry). A [Batched] item counts as its member count; one that would
   overshoot the share is split at the boundary and its tail becomes
   the stream's next item, so budget shares cut families at exactly
   the same case index the unbatched enumeration would have stopped
   at. *)
let drain_share emit works n =
  let rec go works taken =
    if taken >= n then (taken, Some works)
    else
      match Seq.uncons works with
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

(* The budgeted enumeration both the sequential and the sharded path
   share — they MUST emit the same stream in the same order, or sharding
   would change results. Each round splits the remaining budget over the
   streams still live (pattern order, {!split_budget} shares); a stream
   that runs dry below its share drops out and its unused share is
   re-split in the next round, so a campaign executes exactly [b] cases
   whenever the patterns can supply them. Terminates because every
   round either spends budget or removes a dry stream. *)
let emit_budgeted ~budget ~streams ~emit =
  match budget with
  | None -> List.iter (fun cases -> Seq.iter emit cases) streams
  | Some b ->
    let live = ref streams in
    let remaining = ref b in
    while !remaining > 0 && !live <> [] do
      let shares = split_budget !remaining (List.length !live) in
      live :=
        List.concat
          (List.map2
             (fun cases share ->
               if share = 0 then [ cases ]
               else begin
                 let taken, rest = drain_share emit cases share in
                 remaining := !remaining - taken;
                 match rest with Some s -> [ s ] | None -> []
               end)
             !live shares)
    done

(* One snapshot probe per campaign side (a shard, or the sequential
   whole): branch/function counts from the coverage recorder, bug counts
   from the detector, and the campaign-wide per-shard progress view. Probes run at snapshot
   cadence only, so the O(bugs) length walk is fine. *)
let probe_of det progress =
  {
    Timeseries.p_branches =
      (fun () -> Coverage.count (Detector.coverage det));
    p_functions =
      (fun () -> Coverage.prefixed_count (Detector.coverage det) "fn/");
    p_new_bugs = (fun () -> List.length (Detector.bugs det));
    p_dup_bugs = (fun () -> Detector.dup_crashes det);
    p_shard_cases = (fun () -> Progress.read progress);
  }

let mk_result ~prof ~seeds ~tel ~cov ~profile ~positions ~cases_executed
    ~scenarios_executed ~prereq_statements ~stage_verdicts
    ~passed ~clean_errors ~false_positives ~fp_signatures ~known_crashes ~bugs
    =
  {
    dialect = prof;
    seeds_collected = List.length seeds;
    positions;
    cases_executed;
    scenarios_executed;
    prereq_statements;
    stage_verdicts;
    passed;
    clean_errors;
    false_positives;
    unique_false_positives = List.length fp_signatures;
    fp_signatures;
    known_crashes;
    bugs;
    functions_triggered = Coverage.prefixed_count cov "fn/";
    branches_covered = Coverage.count cov;
    timings = Telemetry.stage_timings tel;
    coverage = cov;
    telemetry = tel;
    profile;
  }

(* The CLI "positions" line stays honest for stateful campaigns: the
   seed substitution slots plus the slots in every synthesized scenario
   probe (INSERT/WHERE expression positions included). Counted from a
   fresh untimed enumeration — the streams are pure, so this is the
   same set of probes the campaign draws from. *)
let count_all_positions ~registry ~seeds ~stateful =
  Patterns.count_positions seeds
  + (if stateful then
       Patterns.count_scenario_positions
         (Patterns.generate_scenarios ~registry ~seeds ())
     else 0)

(* The budgeted streams both paths share: every pattern's stateless
   work in paper order, then — by default — the synthesized stateful
   stream as an eleventh source. With [batch] the skeleton-sharing
   families arrive as [Patterns.Batched] slot-stream runs; with
   [batch:false] (and always for the stateful stream, whose scenarios
   are atomic) every item is a [Single], reproducing the historical
   per-case enumeration. Flattening either form yields the same cases
   in the same order, so the two modes execute identical streams. *)
let work_streams ~tel ~registry ~seeds ~patterns ~stateful ~batch =
  List.map
    (fun p ->
      if batch then Patterns.generate_work ~telemetry:tel ~registry ~seeds p
      else
        Seq.map
          (fun c -> Patterns.Single (Patterns.stateless c))
          (Patterns.generate ~telemetry:tel ~registry ~seeds p))
    patterns
  @ (if stateful then
       [
         Seq.map
           (fun sc -> Patterns.Single sc)
           (Patterns.generate_scenarios ~telemetry:tel ~registry ~seeds ());
       ]
     else [])

(* ----- the sequential path (shards = 1) ----- *)

let fuzz_sequential ?budget ?cov ?telemetry ?timeseries
    ?(patterns = Pattern_id.all) ?(compact = true) ?(stateful = true)
    ?(batch = true) prof =
  let tel = match telemetry with Some t -> t | None -> Telemetry.create () in
  let t0 = Telemetry.now_ns () in
  (* compact hit/spill cells are domain-local; the whole sequential
     campaign runs on this domain, so one before/after delta attributes
     its compact activity exactly *)
  let compact0 = Value.Compact.read () in
  (* the result record is built after the campaign span closes so the
     "campaign" stage itself shows up in [timings]; the flush guard runs
     even when a case raises, so streaming sinks survive an abnormal
     termination with the campaign's tail intact *)
  let registry, seeds, detector =
    Fun.protect ~finally:(fun () -> Telemetry.flush tel) @@ fun () ->
    Telemetry.with_span tel ~dialect:prof.Dialect.id "campaign" @@ fun () ->
    let registry = Dialect.registry prof in
    let seeds =
      Collector.collect ~telemetry:tel ~registry ~suite:prof.Dialect.seeds ()
    in
    let detector = Detector.create ?cov ~telemetry:tel ~compact prof in
    let progress = Progress.create 1 in
    let recorder =
      Option.map
        (fun cfg -> Timeseries.recorder cfg ~shard:0 (probe_of detector progress))
        timeseries
    in
    let tick () =
      Progress.tick progress 0;
      Option.iter Timeseries.tick recorder
    in
    (* Sanity pass: the regression suite must run on the armed server too —
       the paper's tool replays the suite it scanned. *)
    Telemetry.with_span tel ~dialect:prof.Dialect.id "seed-replay" (fun () ->
        List.iter
          (fun (seed : Collector.seed) ->
            ignore (Detector.run_stmt detector seed.Collector.stmt);
            tick ())
          seeds);
    emit_budgeted ~budget
      ~streams:(work_streams ~tel ~registry ~seeds ~patterns ~stateful ~batch)
      ~emit:(function
        | Patterns.Single sc ->
          ignore (Detector.run_scenario detector sc);
          tick ()
        | Patterns.Batched b ->
          Detector.run_batch detector b;
          for _ = 1 to Patterns.batch_size b do
            tick ()
          done);
    Option.iter Timeseries.finalize recorder;
    (registry, seeds, detector)
  in
  let cdelta = Value.Compact.since compact0 in
  Telemetry.compact_add tel ~hits:cdelta.Value.Compact.hits
    ~spills:cdelta.Value.Compact.spills;
  Option.iter
    (fun cfg ->
      ignore
        (Timeseries.campaign_final cfg
           ~elapsed_ns:(Telemetry.now_ns () - t0)
           ~cases:(Detector.executed detector)
           ~branches:(Coverage.count (Detector.coverage detector))
           ~functions:
             (Coverage.prefixed_count (Detector.coverage detector) "fn/")
           ~new_bugs:(List.length (Detector.bugs detector))
           ~dup_bugs:(Detector.dup_crashes detector)
           ~shard_cases:[| Detector.executed detector |]))
    timeseries;
  mk_result ~prof ~seeds ~tel
    ~cov:(Detector.coverage detector)
    ~profile:(Detector.exec_profile detector)
    ~positions:(count_all_positions ~registry ~seeds ~stateful)
    ~cases_executed:(Detector.executed detector)
    ~scenarios_executed:(Detector.scenarios_executed detector)
    ~prereq_statements:(Detector.prereq_statements detector)
    ~stage_verdicts:(Detector.stage_verdicts detector)
    ~passed:(Detector.passed detector)
    ~clean_errors:(Detector.clean_errors detector)
    ~false_positives:(Detector.false_positives detector)
    ~fp_signatures:(Detector.fp_signatures detector)
    ~known_crashes:(Detector.known_crashes detector)
    ~bugs:(Detector.bugs detector)

(* ----- the sharded path -----

   There is no producer: every worker domain enumerates, by itself,
   exactly the stream a sequential run would execute (seed replay
   first, then every pattern in paper order under the same budget
   shares) — the streams are pure, so each worker sees the identical
   enumeration — and numbers each work item with its 1-based index in
   that stream. Item [n] belongs to shard [(n - 1) mod shards]; shard
   [s] is owned by worker [s mod jobs], and a worker executes only the
   items of its own shards, stepping over the rest. A family batch is
   cut into per-shard member slices, each paired with its members'
   global case numbers. The main domain only collects the seeds, runs
   the pool and merges.

   Each worker times its own enumeration: its seed loop runs inside a
   "seed-replay" span and generation inside "generate" spans, both on
   the collector of its first owned shard (shard [w]), so the merged
   "generate" stage counts [jobs] times the sequential calls.

   Each shard runs a private engine/detector/coverage/telemetry, and
   each worker a private registry ([Registry.resolve] memoises into
   it) — nothing mutable is shared between domains. Because a shard
   executes its sub-stream in increasing global order, merging is pure
   bookkeeping afterwards: counters and histograms add, coverage points
   union, and the New-vs-Dup split is re-derived by globally ordering
   crash records on case number ([Detector.merge_bugs]). *)

let fuzz_sharded ?budget ?cov ?telemetry ?timeseries
    ?(patterns = Pattern_id.all) ?(compact = true) ?(stateful = true)
    ?(batch = true) ~shards ?jobs prof =
  let shards = Stdlib.max 1 shards in
  let jobs =
    match jobs with
    | Some j -> Stdlib.max 1 (Stdlib.min j shards)
    | None -> shards
  in
  let tel = match telemetry with Some t -> t | None -> Telemetry.create () in
  let campaign_cov = match cov with Some c -> c | None -> Coverage.create () in
  let dialect = prof.Dialect.id in
  let t0 = Telemetry.now_ns () in
  (* per-shard attribution profilers, allocated on the main domain but
     only ever charged by the shard's owning worker; merged (in shard
     order) into the campaign profile afterwards *)
  let shard_profiles = Array.init shards (fun _ -> Profile.create ()) in
  let progress = Progress.create shards in
  let registry, seeds, shard_covs, shard_tels, detectors =
    Fun.protect ~finally:(fun () -> Telemetry.flush tel) @@ fun () ->
    Telemetry.with_span tel ~dialect "campaign" @@ fun () ->
    let registry = Dialect.registry prof in
    let seeds =
      Collector.collect ~telemetry:tel ~registry ~suite:prof.Dialect.seeds ()
    in
    let shard_covs = Array.init shards (fun _ -> Coverage.create ()) in
    let shard_tels = Array.init shards (fun _ -> Telemetry.create ()) in
    let worker w () =
      (* engines are armed inside the worker domain, so even startup
         cost parallelises. Compact hit/spill cells are domain-local, so
         a before/after delta taken inside the worker attributes exactly
         this worker's compact activity; it is credited to the worker's
         first owned shard's collector (totals merge shard-wise). *)
      let compact0 = Value.Compact.read () in
      (* [Registry.resolve] memoises into its registry, so no registry
         is shared between domains *)
      let registry = Dialect.registry prof in
      (* shard [w] is this worker's first owned shard *)
      let wtel = shard_tels.(w) in
      (* [owned.(s)] is [Some (detector, recorder)] iff this worker owns
         shard [s] *)
      let owned =
        Array.init shards (fun s ->
            if s mod jobs <> w then None
            else begin
              let det =
                Detector.create ~cov:shard_covs.(s) ~telemetry:shard_tels.(s)
                  ~profile:shard_profiles.(s) ~compact prof
              in
              let recorder =
                Option.map
                  (fun cfg ->
                    Timeseries.recorder cfg ~shard:s
                      (probe_of det progress))
                  timeseries
              in
              Some (det, recorder)
            end)
      in
      let tick s recorder =
        Progress.tick progress s;
        Option.iter Timeseries.tick recorder
      in
      (* global 1-based case counter: [!last] is the number of the most
         recently enumerated case *)
      let last = ref 0 in
      let run_one f =
        incr last;
        let s = (!last - 1) mod shards in
        match owned.(s) with
        | Some (det, recorder) ->
          f det !last;
          tick s recorder
        | None -> ()
      in
      (* members [first], [first + shards], … of a family starting after
         case [n0] land on shard [s] *)
      let run_slices (b : Patterns.batch) =
        let n0 = !last and m = Patterns.batch_size b in
        last := n0 + m;
        Array.iteri
          (fun s slot ->
            match slot with
            | None -> ()
            | Some (det, recorder) ->
              let first = (s - (n0 mod shards) + shards) mod shards in
              if first < m then begin
                let count = ((m - first - 1) / shards) + 1 in
                let vecs =
                  List.filteri
                    (fun i _ -> i >= first && (i - first) mod shards = 0)
                    b.Patterns.b_vecs
                in
                Detector.run_batch det
                  ~case_numbers:
                    (Array.init count (fun k -> n0 + first + (k * shards) + 1))
                  { b with Patterns.b_vecs = vecs };
                for _ = 1 to count do
                  tick s recorder
                done
              end)
          owned
      in
      Telemetry.with_span wtel ~dialect "seed-replay" (fun () ->
          List.iter
            (fun (seed : Collector.seed) ->
              run_one (fun det case_number ->
                  ignore (Detector.run_stmt det ~case_number seed.Collector.stmt)))
            seeds);
      emit_budgeted ~budget
        ~streams:
          (work_streams ~tel:wtel ~registry ~seeds ~patterns ~stateful ~batch)
        ~emit:(function
          | Patterns.Single sc ->
            run_one (fun det case_number ->
                ignore (Detector.run_scenario det ~case_number sc))
          | Patterns.Batched b -> run_slices b);
      Array.iter
        (Option.iter (fun (_, recorder) ->
             Option.iter Timeseries.finalize recorder))
        owned;
      let d = Value.Compact.since compact0 in
      Telemetry.compact_add wtel ~hits:d.Value.Compact.hits
        ~spills:d.Value.Compact.spills;
      Array.map (Option.map fst) owned
    in
    let per_worker =
      Pool.with_pool jobs (fun pool ->
          Pool.run pool (List.init jobs (fun w -> worker w)))
    in
    let detectors =
      Array.init shards (fun s -> Option.get (List.nth per_worker (s mod jobs)).(s))
    in
    (registry, seeds, shard_covs, shard_tels, detectors)
  in
  (* deterministic merge, in shard order *)
  Array.iter (fun c -> Coverage.merge_into ~dst:campaign_cov c) shard_covs;
  Array.iter (fun t -> Telemetry.merge_into ~dst:tel t) shard_tels;
  let bugs, demoted =
    Detector.merge_bugs
      (Array.to_list (Array.map Detector.bugs detectors))
  in
  List.iter
    (fun (b : Detector.found_bug) ->
      let pattern =
        match b.Detector.found_by with
        | Some p -> Pattern_id.to_string p
        | None -> "seed"
      in
      Telemetry.reclassify_verdict tel ~dialect ~pattern
        ~from_:Telemetry.New_bug ~to_:Telemetry.Dup_bug)
    demoted;
  let campaign_profile = Profile.create () in
  Array.iter
    (fun p -> Profile.merge_into ~dst:campaign_profile p)
    shard_profiles;
  let sum f = Array.fold_left (fun acc d -> acc + f d) 0 detectors in
  let fp_signatures =
    List.sort_uniq String.compare
      (List.concat_map Detector.fp_signatures (Array.to_list detectors))
  in
  (* the campaign-final snapshot is computed from the deterministically
     merged totals, never from racing shard streams: its
     cases/branches/functions/new_bugs/dup_bugs match a sequential run
     of the same campaign bit-for-bit (rates and timestamps are
     throughput metadata and do not) *)
  Option.iter
    (fun cfg ->
      ignore
        (Timeseries.campaign_final cfg
           ~elapsed_ns:(Telemetry.now_ns () - t0)
           ~cases:(sum Detector.executed)
           ~branches:(Coverage.count campaign_cov)
           ~functions:(Coverage.prefixed_count campaign_cov "fn/")
           ~new_bugs:(List.length bugs)
           ~dup_bugs:(sum Detector.dup_crashes + List.length demoted)
           ~shard_cases:(Progress.read progress)))
    timeseries;
  let stage_verdicts =
    Array.fold_left
      (fun acc d ->
        let sv = Detector.stage_verdicts d in
        {
          Detector.parse = acc.Detector.parse + sv.Detector.parse;
          execute = acc.Detector.execute + sv.Detector.execute;
          storage = acc.Detector.storage + sv.Detector.storage;
        })
      { Detector.parse = 0; execute = 0; storage = 0 }
      detectors
  in
  mk_result ~prof ~seeds ~tel ~cov:campaign_cov ~profile:campaign_profile
    ~positions:(count_all_positions ~registry ~seeds ~stateful)
    ~cases_executed:(sum Detector.executed)
    ~scenarios_executed:(sum Detector.scenarios_executed)
    ~prereq_statements:(sum Detector.prereq_statements)
    ~stage_verdicts
    ~passed:(sum Detector.passed)
    ~clean_errors:(sum Detector.clean_errors)
    ~false_positives:(sum Detector.false_positives)
    ~fp_signatures ~known_crashes:(sum Detector.known_crashes) ~bugs

let fuzz ?budget ?cov ?telemetry ?timeseries ?patterns ?compact ?stateful
    ?batch ?(shards = 1) ?jobs prof =
  if shards <= 1 then
    fuzz_sequential ?budget ?cov ?telemetry ?timeseries ?patterns ?compact
      ?stateful ?batch prof
  else
    fuzz_sharded ?budget ?cov ?telemetry ?timeseries ?patterns ?compact
      ?stateful ?batch ~shards ?jobs prof

let fuzz_all ?budget ?telemetry ?timeseries ?compact ?stateful ?batch
    ?(jobs = 1) ?(shards = 1) () =
  if jobs <= 1 then
    List.map
      (fun prof ->
        fuzz ?budget ?telemetry ?timeseries ?compact ?stateful ?batch
          ~shards prof)
      Dialect.all
  else begin
    (* each campaign records into a private collector on its own domain;
       the caller's collector receives the merged aggregates afterwards,
       in dialect order, so shared-collector totals match a sequential
       [fuzz_all] (per-case events are not replayed into the shared
       sink — pass a sink per campaign, or run sequentially, to
       stream them) *)
    let results =
      Pool.with_pool
        (Stdlib.min jobs (List.length Dialect.all))
        (fun pool ->
          Pool.run pool
            (List.map
               (fun prof () ->
                 fuzz ?budget ?timeseries ?compact ?stateful ?batch
                   ~shards prof)
               Dialect.all))
    in
    Option.iter
      (fun tel ->
        List.iter (fun r -> Telemetry.merge_into ~dst:tel r.telemetry) results)
      telemetry;
    results
  end

let bugs_by_pattern_family result =
  let count family =
    List.length
      (List.filter
         (fun (b : Detector.found_bug) ->
           Pattern_id.family b.Detector.spec.Fault.pattern = family)
         result.bugs)
  in
  [
    (Pattern_id.Literal, count Pattern_id.Literal);
    (Pattern_id.Casting, count Pattern_id.Casting);
    (Pattern_id.Nested, count Pattern_id.Nested);
  ]

let bug_summary_line (b : Detector.found_bug) =
  Printf.sprintf "[%s] %s %s %s via %s: %s"
    (Bug_kind.to_string b.Detector.spec.Fault.kind)
    b.Detector.spec.Fault.dialect b.Detector.spec.Fault.func
    b.Detector.spec.Fault.site
    (match b.Detector.found_by with
     | Some p -> Pattern_id.to_string p
     | None -> "seed")
    b.Detector.poc
