(** Decimal digit writers for the rendering hot paths.

    Byte-identical to [string_of_int] / [Int64.to_string] / [Printf]'s
    ["%0*d"], without the format interpreter: values are rendered per
    element (a [RANGE(99999)] array, a [DATE_FORMAT] template repeated
    ten thousand times), where the interpreter's constant factor is the
    whole cost. *)

val add_int : Buffer.t -> int -> unit
(** Same bytes as [string_of_int]. *)

val add_int64 : Buffer.t -> int64 -> unit
(** Same bytes as [Int64.to_string]. *)

val int64_to_string : int64 -> string
(** [Int64.to_string] through {!add_int64}. *)

val add_padded : Buffer.t -> int -> int -> unit
(** [add_padded buf width n] writes the same bytes as
    [Printf.sprintf "%0*d" width n]: zeros between the sign and the
    digits up to [width] characters in total, never truncated. *)
