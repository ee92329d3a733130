(** JSON values with a recursion-budgeted parser.

    The parser takes an explicit [max_depth]: PostgreSQL's CVE-2015-5289
    (stack overflow on [REPEAT('[', 1000)::json]) is exactly a missing
    depth budget, and the fault-injection layer reproduces it by running
    selected dialects with the budget disabled. *)

type t =
  | J_null
  | J_bool of bool
  | J_num of string  (** numeric literals kept verbatim *)
  | J_str of string
  | J_arr of t list
  | J_obj of (string * t) list

type error =
  | Syntax of { msg : string; at : int }
  | Depth_exceeded of int
      (** nesting went past the configured budget — the caller decides
          whether that is a clean error or a simulated crash *)

val parse : ?max_depth:int -> string -> (t, error) result
(** Default [max_depth] is 512. *)

val to_string : t -> string
val depth : t -> int

val length : t -> int
(** Number of elements (array), members (object), or 1 for scalars —
    matches [JSON_LENGTH] semantics. *)

val typ : t -> string
(** ["null"], ["boolean"], ["number"], ["string"], ["array"], ["object"]. *)

(** {1 Paths} *)

type path_step =
  | Key of string
  | Index of int

val parse_path : string -> (path_step list, string) result
(** Parses [$.a.b[0]] style paths. Array indices must be non-negative:
    [$.a[-1]] is an error. *)

val extract : t -> path_step list -> t option

val error_to_string : error -> string
