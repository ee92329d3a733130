(** Crash detection — SOFT's third step.

    Statements run against a live (armed) simulated server. A clean SQL
    error is the expected boundary behaviour; a {!Sqlfun_fault.Fault.Crash}
    or a blown stack is a found bug (the server "died" and is restarted);
    a resource-limit termination is the paper's false-positive class.

    A restart is an in-place reset, not a rebuild: the engine's mutable
    state is its session (cleared), its step counter (zeroed per
    statement anyway) and its catalog (restored to the post-seed
    baseline); the fault runtime, the per-dialect registry and the
    profiler are unchanged by a crash. *)

open Sqlfun_fault
open Sqlfun_dialects

type verdict =
  | Passed
  | Clean_error of string
  | False_positive of string  (** killed by the memory/step guard *)
  | New_bug of Fault.spec     (** first trigger of a ledger bug *)
  | Dup_bug of Fault.spec     (** a site already on file *)
  | Known_crash of string     (** e.g. the CVE-2015-5289-class stack blow *)

type found_bug = {
  spec : Fault.spec;
  found_by : Pattern_id.t option;  (** [None] when a raw seed crashed *)
  poc : string;                    (** the crashing SQL statement *)
  case_number : int;               (** 1-based execution index *)
}

type t

val create :
  ?cov:Sqlfun_coverage.Coverage.t ->
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  ?profile:Sqlfun_telemetry.Profile.t ->
  ?compact:bool ->
  Dialect.profile ->
  t
(** Builds an armed engine for the profile (reset in place after each
    crash).

    [profile] is the execute-stage attribution profiler (see
    {!Sqlfun_telemetry.Profile}): a root scope around every engine
    round-trip catches unclaimed time as [other], the engine's own
    scopes charge parse/plan/eval/storage, and verdict bookkeeping runs
    under [detector-classify]. A private profiler is created when
    omitted; its dialect context is set to this profile's id either
    way.

    Without [telemetry] a private null-sink collector is created, so
    stage timings and verdict counters always accumulate; pass a
    collector to share aggregates with the rest of a campaign or to
    stream events. Each executed statement is timed as an ["execute"]
    span (the engine round-trip) plus a ["detect"] span (verdict
    bookkeeping); the engine arm and each in-place reset after a crash
    are ["restart-after-crash"] spans; every verdict bumps the dialect
    x pattern x class counter.

    [compact] (default [true]) enables the compact value
    representations ({!Sqlfun_value.Value.Range_arr}/[Rope_str]) inside
    the engine; verdicts, coverage and fault sites are
    representation-independent either way. *)

val run_sql :
  t -> ?pattern:Pattern_id.t -> ?case_number:int -> string -> verdict

val run_stmt :
  t -> ?pattern:Pattern_id.t -> ?case_number:int -> Sqlfun_ast.Ast.stmt -> verdict

val run_case : t -> ?case_number:int -> Patterns.case -> verdict
(** [case_number] overrides the detector-local 1-based execution index
    recorded on bug records and verdict events. Shard workers pass the
    case's index in the global (unsharded) stream so merged campaign
    output is bit-identical to a sequential run; plain callers omit
    it. *)

val run_scenario : t -> ?case_number:int -> Patterns.scenario -> verdict
(** One scenario = one case. A bare probe ([prereqs = []]) is exactly
    {!run_case}. Otherwise: the session is reset once, the
    prerequisites and the probe execute as a single classified
    round-trip (so session-state probes see their prerequisites'
    effects), and the engine's storage is returned to the post-seed
    baseline afterwards — by the crash restart if the scenario crashed,
    explicitly otherwise. A clean prerequisite failure is the
    scenario's verdict; a prerequisite crash is a found bug whose PoC
    is the whole statement list (replayable standalone from a cold
    engine). *)

val run_batch : t -> ?case_numbers:int array -> Patterns.batch -> unit
(** Execute one skeleton-sharing family: each member's statement is
    rebuilt from the skeleton and its slot vector
    ({!Patterns.batch_stmt}) and run through {!run_stmt}, so verdicts,
    counters, bug records, fault sites and coverage are bit-identical to
    running the unbatched cases through {!run_case}.
    [case_numbers.(i)] overrides member [i]'s global case number,
    exactly like [case_number] on {!run_case}. *)

val executed : t -> int
(** Every case run. *)

val passed : t -> int
val clean_errors : t -> int
val false_positives : t -> int

val unique_false_positives : t -> int
(** Distinct false-positive report signatures, the unit the paper's "7
    false positives" counts. *)

val fp_signatures : t -> string list
(** The signatures themselves (sorted), for cross-dialect deduplication. *)

val known_crashes : t -> int

val dup_crashes : t -> int
(** [Dup_bug] verdicts recorded by this detector — the campaign
    timeseries' dup-bug count. *)

val scenarios_executed : t -> int
(** Stateful scenarios admitted (prerequisites non-empty) — one per
    {!run_scenario} call that was not a bare probe. *)

val prereq_statements : t -> int
(** Prerequisite statements admitted across all stateful scenarios. *)

type stage_counts = { parse : int; execute : int; storage : int }
(** Crash-class verdicts (New/Dup/Known) attributed by the paper's
    occurrence stage. Ledger bugs inside function implementations are
    execute-stage; [@PARSE]/[@INSERT] staged specs are parse- and
    storage-stage; a blown stack is execute-stage by definition. *)

val stage_verdicts : t -> stage_counts

val bugs : t -> found_bug list
(** In discovery order. *)

val merge_bugs : found_bug list list -> found_bug list * found_bug list
(** [merge_bugs per_shard] re-derives the sequential New-vs-Dup split
    from shard-local bug lists whose [case_number]s are global stream
    indices: all records are ordered by global case number and the
    first sighting of each site is kept. Returns
    [(kept, demoted)] — [kept] is bit-identical to the bug list of a
    sequential run (order included); [demoted] are shard-local News
    that globally turn out to be duplicates (their [New_bug] verdict
    counters must be reclassified to [Dup_bug]). *)

val coverage : t -> Sqlfun_coverage.Coverage.t

val arming_coverage : t -> (string * int) list
(** The hits arming the engine recorded into {!coverage} at {!create}
    (points with hit counts, sorted by name): the coverage of loading
    the seed corpus. Every crash restart credits it again, so hit
    counts equal those of rebuilding the engine per crash. *)

val engine : t -> Sqlfun_engine.Engine.t
(** The detector's engine. It lives as long as the detector: a crash
    restart resets it in place. *)

val profile : t -> Dialect.profile

val telemetry : t -> Sqlfun_telemetry.Telemetry.t
(** The collector the detector records into (the one passed to
    {!create}, or its private one). *)

val exec_profile : t -> Sqlfun_telemetry.Profile.t
(** The attribution profiler the detector's engine charges (the one
    passed to {!create}, or its private one). *)
