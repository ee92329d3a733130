(** Branch/point coverage recorder for the SQL-function component.

    Function implementations and the casting layer mark decision points
    with {!hit}; distinct point counts are what Table 6 compares across
    testing tools. Recorders are cheap to create and merge, so each
    experiment run gets its own. *)

type t

val create : unit -> t
val hit : t -> string -> unit
(** Record one execution of the named branch point. *)

val add : t -> string -> int -> unit
(** [add t point n] records [n] executions of [point] at once — the same
    counts as [n] calls of {!hit} ([n >= 1]). *)

val count : t -> int
(** Number of distinct points hit. *)

val total_hits : t -> int

val points : t -> (string * int) list
(** Distinct points with their hit counts, sorted by name. *)

val mem : t -> string -> bool
val reset : t -> unit

val merge_into : dst:t -> t -> unit
(** Adds every point of the source into [dst]. *)

val merge : t -> t -> t
(** Fresh recorder holding the union of both inputs (per-point hit
    counts add). Commutative and associative, with a fresh recorder as
    identity — the algebra the sharded campaign merge relies on. *)

val diff : t -> t -> string list
(** [diff a b] is the points hit in [a] but not in [b]. *)

val prefixed_count : t -> string -> int
(** Distinct points whose name starts with the given prefix — used to
    slice coverage per function or per module. *)

val to_json : t -> Sqlfun_telemetry.Json.t
(** [{"distinct": n, "total_hits": n, "points": {point: hits, ...}}] —
    the coverage slice embedded in telemetry snapshots. *)
