(** Expression evaluation and query execution.

    Evaluation threads {!Sqlfun_fault.Fault.Prov} provenance through every
    value so the fault layer can distinguish the paper's three boundary
    sources (literal / cast / nested function) at the moment an argument
    reaches a function. *)

open Sqlfun_value
open Sqlfun_fault
open Sqlfun_functions
open Sqlfun_ast

type env = {
  ctx : Fn_ctx.t;
  registry : Registry.t;
  catalog : Storage.catalog;
  profile : Sqlfun_telemetry.Profile.t;
      (** execute-stage attribution: evaluation charges
          [dialect x function x phase] keys as it runs (see
          {!Sqlfun_telemetry.Profile}) *)
}

type result_set = { columns : string list; rows : Value.t list list }

val eval_expr :
  env -> row:(string * Value.t) list option -> Ast.expr -> Fault.arg
(** @raise Fn_ctx.Sql_error on clean SQL errors
    @raise Fn_ctx.Resource_limit on budget exhaustion
    @raise Fault.Crash when an armed injected bug triggers *)

val exec_query : env -> Ast.query -> result_set

type outcome =
  | Rows of result_set
  | Affected of int

val exec_stmt : env -> Ast.stmt -> outcome

val like_match : pattern:string -> string -> bool
(** SQL LIKE with [%], [_] and [\ ] escapes (exposed for tests). *)

(** {2 Shared node semantics}

    The literal/operator semantics below are exposed for the closure
    compiler ({!Compile}); both execution paths must evaluate every node
    identically — values, ticks, coverage, provenance, and errors. *)

val default_column_name : int -> string
(** ["col<i+1>"], the name of the unaliased non-column projection at
    0-based position [i]. *)

val value_of_int_lit : string -> Value.t
val value_of_dec_lit : string -> Value.t

val truthiness : Value.t -> bool option
(** SQL three-valued logic coercion. *)

val arith : Fn_ctx.t -> Ast.binop -> Value.t -> Value.t -> Value.t
(** Numeric +,-,*,/,%% with strictness-dependent overflow handling.
    Ticks in proportion to operand size. *)

val datetime_of_value : Value.t -> Sqlfun_data.Calendar.datetime option

val temporal_shift :
  Fn_ctx.t -> Sqlfun_data.Calendar.datetime -> Sqlfun_data.Calendar.interval ->
  int -> Value.t

val bitop : Ast.binop -> int64 -> int64 -> int64

val top_level_calls : Ast.expr -> Ast.call list
(** Call nodes in pre-order, not descending into subqueries — the unit
    the aggregation check inspects. *)
