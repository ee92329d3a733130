(** The ten boundary-value-generation patterns (§6) as statement
    generators.

    Each generator enumerates substitution positions in the collected
    seeds and yields rewritten statements lazily, in the paper's pattern
    order (P1.2 … P3.3 — P1.1 is the pool itself, consumed by the
    others). Per Finding 3, seeds already containing more than two
    function expressions are not expanded further by the nesting
    patterns. *)

open Sqlfun_ast
open Sqlfun_fault
open Sqlfun_functions

type case = {
  stmt : Ast.stmt;
  pattern : Pattern_id.t;
  origin : string;  (** SQL of the seed this case was derived from *)
}

val generate :
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  registry:Registry.t ->
  seeds:Collector.seed list ->
  Pattern_id.t ->
  case Seq.t
(** Cases for one pattern. [P1_1] yields the pool itself as bare
    [SELECT <literal>] probes. With [telemetry], forcing each case out of
    the lazy sequence is timed as a ["generate"] span tagged with the
    pattern — generation is interleaved with execution, so this is the
    only honest way to attribute its cost. *)

val all_cases :
  registry:Registry.t -> seeds:Collector.seed list -> case Seq.t
(** All patterns concatenated in paper order. *)

val count_positions : Collector.seed list -> int
(** Number of (call, argument) substitution slots across the seeds —
    reported by the CLI and exercised in tests. *)

(** A stateful scenario: prerequisite statements (CREATE TABLE shapes
    with boundary-typed columns, INSERTs carrying boundary literals,
    session/sequence setups) followed by one probe case. The detector
    executes the prerequisites, classifies the probe, and restores the
    engine's post-seed storage baseline afterwards, so each scenario's
    verdict is a pure function of its statement list. *)
type scenario = { prereqs : Ast.stmt list; case : case }

val stateless : case -> scenario
(** A bare probe with no prerequisites — the historical unit of work. *)

val generate_scenarios :
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  registry:Registry.t ->
  seeds:Collector.seed list ->
  unit ->
  scenario Seq.t
(** The synthesized stateful stream, five kinds round-robin interleaved
    (stored-boundary probes, INSERT-position and WHERE-position
    substitutions, session/sequence state, extreme-typed columns) so a
    budget-truncated prefix samples every kind — and therefore every
    occurrence stage (parse / execute / storage) — early.
    Deterministic: re-enumerating yields the identical stream. *)

val count_scenario_positions : scenario Seq.t -> int
(** Substitution slots across the scenario probes (INSERT/WHERE
    expression positions included) — the stateful share of the CLI
    "positions" line. Forces the sequence. *)

(** A slot-stream batch: one case family that shares a skeleton —
    every member differs from [b_skeleton] only in the literal window
    [b_lo, b_lo + b_n) of its {!Ast_util.fold_slots} vector. Each
    member's full AST is recoverable with {!batch_stmt}. *)
type batch = {
  b_pattern : Pattern_id.t;
  b_origin : string;
  b_skeleton : Ast.stmt;  (** first member's full statement *)
  b_slots : Ast.expr array;  (** [Ast_util.fold_slots] of the skeleton *)
  b_lo : int;  (** varying window start in [b_slots] *)
  b_n : int;  (** varying window width *)
  b_vecs : Ast.expr array list;  (** one window vector per case, in order *)
}

(** The batched unit of work: a singleton scenario or a whole family. *)
type work = Single of scenario | Batched of batch

val batch_size : batch -> int
val work_size : work -> int

val batch_stmt : batch -> Ast.expr array -> Ast.stmt
(** [batch_stmt b vec] reconstructs one member's full statement from
    the skeleton and its window vector — structurally equal to what
    the unbatched generator emitted for that member. The detector
    rebuilds every batch member with it before interpreting it. *)

val batch_cases : batch -> case Seq.t
(** All members reconstructed, in stream order. *)

val work_cases : work -> case Seq.t
(** Flatten one work item back to the unbatched case stream. *)

val split_batch : batch -> int -> batch * batch
(** [split_batch b k] splits the member list at [k] (clamped), sharing
    the skeleton — how a budget share cuts a family without re-deriving
    it. *)

val generate_work :
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  registry:Registry.t ->
  seeds:Collector.seed list ->
  Pattern_id.t ->
  work Seq.t
(** {!generate}, batched: the skeleton-sharing families (P1.1–P1.4,
    P2.3, P3.1) arrive as [Batched] runs of consecutive same-shaped
    variants, everything else as [Single] items. Flattening with
    {!work_cases} reproduces {!generate}'s stream element for element
    — same statements, same order — which is what keeps batched
    campaigns bit-identical to [--no-batch]. *)
