(** The complete SOFT pipeline: collect → generate per pattern → detect.

    One call of {!fuzz} is one "testing campaign" against one simulated
    DBMS, the unit the paper's Tables 4–6 aggregate.

    Campaigns parallelise at two levels on OCaml 5 domains
    ({!Sqlfun_parallel.Pool}):

    - {b shard-level} — {!fuzz} [~shards:k] partitions the case stream
      round-robin across [k] shards, each with a private
      engine/detector/coverage/telemetry, and merges the shard results
      deterministically: verdict counters, bug lists (order and case
      numbers included) and FP-signature sets are bit-identical to a
      sequential run regardless of shard count or completion order.
    - {b dialect-level} — {!fuzz_all} [~jobs:n] runs whole campaigns on
      separate domains.

    Only wall-clock timings differ between a parallel and a sequential
    run; the "execute"/"detect" stage totals still measure CPU time
    summed across shards. *)

open Sqlfun_fault
open Sqlfun_dialects

type result = {
  dialect : Dialect.profile;
  seeds_collected : int;
  positions : int;           (** substitution slots found by the collector *)
  cases_executed : int;
  scenarios_executed : int;
      (** of {!cases_executed}, how many were stateful scenarios
          (non-empty prerequisite lists); deterministic in shard/job
          count *)
  prereq_statements : int;
      (** prerequisite statements admitted across those scenarios *)
  stage_verdicts : Detector.stage_counts;
      (** crash-class verdicts attributed to the paper's occurrence
          stages (parse / execute / storage); deterministic in
          shard/job count *)
  passed : int;
  clean_errors : int;
  false_positives : int;
  unique_false_positives : int;  (** distinct FP report signatures *)
  fp_signatures : string list;
  known_crashes : int;
  bugs : Detector.found_bug list;
  functions_triggered : int; (** distinct functions reached (Table 5) *)
  branches_covered : int;    (** distinct coverage points (Table 6) *)
  timings : Sqlfun_telemetry.Telemetry.stage_timing list;
      (** per-stage wall-time aggregates (campaign, collect, seed-replay,
          generate, execute, detect, restart-after-crash), sorted by
          total time *)
  coverage : Sqlfun_coverage.Coverage.t;
      (** the campaign's coverage recorder, for snapshot slicing *)
  telemetry : Sqlfun_telemetry.Telemetry.t;
      (** the collector the campaign recorded into — holds the
          dialect x pattern x verdict counters behind {!timings} *)
  profile : Sqlfun_telemetry.Profile.t;
      (** execute-stage attribution (dialect x function x phase
          self-times); under sharding, the deterministic merge of the
          per-shard profilers *)
}

val split_budget : int -> int -> int list
(** [split_budget b n] is the per-pattern share of an [n]-pattern
    campaign with budget [b]: [n] entries of [b / n], with the first
    [b mod n] entries getting one extra case so the shares sum to
    exactly [b]. Empty when [n <= 0]. *)

val fuzz :
  ?budget:int ->
  ?cov:Sqlfun_coverage.Coverage.t ->
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  ?timeseries:Sqlfun_telemetry.Timeseries.cfg ->
  ?patterns:Pattern_id.t list ->
  ?compact:bool ->
  ?stateful:bool ->
  ?batch:bool ->
  ?shards:int ->
  ?jobs:int ->
  Dialect.profile ->
  result
(** [budget] caps generated-case executions (default: exhaust all
    patterns); it is split across patterns by {!split_budget}, and a
    pattern that runs dry below its share hands the unused remainder to
    the patterns still generating — a campaign executes exactly
    [budget] cases whenever the patterns can supply them.
    [patterns] restricts the pattern set — the ablation knob. Seeds are
    executed first (sanity pass, not counted against the budget).
    [compact] (default [true]) toggles the detector's compact value
    representations (see {!Detector.create}); it is throughput-only —
    verdicts, bugs, coverage and FP signatures are bit-identical with
    it off.
    [stateful] (default [true]) appends the synthesized stateful
    scenario stream ({!Patterns.generate_scenarios}) as one extra
    budget stream; with [stateful:false] the campaign is bit-identical
    to the historical single-statement pipeline (the stateless streams
    never execute DDL/DML as cases, so the parse/storage fault stages
    are unreachable and every staged counter is zero).
    [batch] (default [true]) streams skeleton-sharing pattern families
    as slot-stream batches ({!Patterns.generate_work} /
    {!Detector.run_batch}): one skeleton AST plus slot vectors per
    family run, each member rebuilt and interpreted like an unbatched
    case. Flattened case streams, verdicts, bug lists (case numbers
    included), FP signatures and coverage are bit-identical to
    [batch:false] under any combination of the other toggles and any
    [shards]/[jobs]; batch counters are reported on the collector
    ({!Sqlfun_telemetry.Telemetry.batch_counts}). Under sharding a
    family batch is split by member across shards along the same
    round-robin single cases follow. Compact construction/spill
    counts are credited to the campaign collector
    ({!Sqlfun_telemetry.Telemetry.compact_counts}) once per campaign
    side (per worker domain under sharding).
    [telemetry] plugs in a shared collector/sink; without it a private
    null-sink collector still populates [timings] — verdicts and bug
    lists are bit-identical either way.

    [shards] (default 1) partitions the case stream across that many
    independent engine instances; [jobs] (default [shards], clamped to
    it) is the number of worker domains executing them. [shards = 1]
    is exactly the sequential path. Results are deterministic in
    [shards] and [jobs]: only timings change. There is no producer
    domain: every worker enumerates the whole case stream itself (seed
    replay, then the budgeted pattern streams) and executes only the
    items of the shards it owns. Each worker times that enumeration on
    its first owned shard's collector — its seed loop as one
    ["seed-replay"] span, its generation as ["generate"] spans — so
    the merged ["generate"] stage counts [jobs] times the sequential
    calls. With [shards > 1] a
    [--trace]-style event sink on [telemetry] sees campaign-level
    spans but not per-case events (shard collectors are merged as
    aggregates).

    [timeseries] enables periodic campaign snapshots
    ({!Sqlfun_telemetry.Timeseries}): every executed case ticks a
    recorder (one per shard), and the campaign closes with a
    campaign-final snapshot ([shard = -1]) computed from the merged
    totals — its cases/branches/functions/new_bugs/dup_bugs fields are
    identical at any shard/job count. Under sharding the [cfg.emit]
    callback runs on worker domains and must be thread-safe.

    Registered telemetry flushers ({!Sqlfun_telemetry.Telemetry.flush})
    run when the campaign ends {e and} when it unwinds on an exception,
    and on every engine crash-restart, so streaming sinks are never
    left with a silently truncated tail. *)

val fuzz_sharded :
  ?budget:int ->
  ?cov:Sqlfun_coverage.Coverage.t ->
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  ?timeseries:Sqlfun_telemetry.Timeseries.cfg ->
  ?patterns:Pattern_id.t list ->
  ?compact:bool ->
  ?stateful:bool ->
  ?batch:bool ->
  shards:int ->
  ?jobs:int ->
  Dialect.profile ->
  result
(** The sharded pipeline itself, without {!fuzz}'s [shards <= 1]
    short-circuit — exposed so tests can pin a [shards:1] run of the
    shard/merge machinery against the plain sequential path
    field-for-field. *)

val fuzz_all :
  ?budget:int ->
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  ?timeseries:Sqlfun_telemetry.Timeseries.cfg ->
  ?compact:bool ->
  ?stateful:bool ->
  ?batch:bool ->
  ?jobs:int ->
  ?shards:int ->
  unit ->
  result list
(** One campaign per dialect, paper order. [jobs] (default 1) runs
    campaigns on that many worker domains; [shards] is passed through
    to each campaign. A shared [telemetry] yields cross-dialect
    aggregates (counters stay keyed by dialect); with [jobs > 1] each
    campaign records privately and the shared collector receives the
    merged aggregates in dialect order. *)

val bugs_by_pattern_family : result -> (Pattern_id.family * int) list
val bug_summary_line : Detector.found_bug -> string
