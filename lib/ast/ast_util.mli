(** Traversals over {!Ast} used by the study statistics and by SOFT's
    enumerate-and-substitute generation step. *)

val fold_exprs : ('a -> Ast.expr -> 'a) -> 'a -> Ast.expr -> 'a
(** Pre-order fold over an expression and all of its subexpressions,
    descending into subqueries. *)

val fold_stmt_exprs : ('a -> Ast.expr -> 'a) -> 'a -> Ast.stmt -> 'a
(** Pre-order fold over every expression contained in a statement. *)

val function_calls : Ast.stmt -> Ast.call list
(** All function-call nodes in the statement, in pre-order — the unit the
    paper counts in Table 2 and that SOFT enumerates. *)

val count_function_exprs : Ast.stmt -> int

val expr_function_calls : Ast.expr -> Ast.call list

val call_depth : Ast.expr -> int
(** Maximum function-call nesting depth ([f(g(x))] has depth 2). *)

val replace_nth_call : Ast.stmt -> int -> Ast.expr -> Ast.stmt option
(** [replace_nth_call stmt n e] replaces the [n]-th (0-based, pre-order)
    function-call node with [e]; [None] when there are fewer calls. *)

val map_exprs : (Ast.expr -> Ast.expr) -> Ast.stmt -> Ast.stmt
(** Bottom-up rewrite of every expression in the statement. *)

val equal_stmt : Ast.stmt -> Ast.stmt -> bool
(** Structural equality of statements. *)

val fold_slots : ('a -> Ast.expr -> 'a) -> 'a -> Ast.stmt -> 'a
(** Pre-order fold over the slot nodes of a statement — its literal
    leaves ([Null]/[Bool_lit]/[Int_lit]/[Dec_lit]/[Str_lit]/[Hex_lit]),
    the positions a SOFT case family varies — in slot order:
    projection, then from/where/group_by/having, then ORDER BY
    expressions. Subquery interiors contribute no slots. *)

val equal_skeleton_expr : Ast.expr -> Ast.expr -> bool
(** Structural equality modulo slot nodes: any literal leaf matches any
    literal leaf, and subquery interiors are compared in full. Two
    skeleton-equal expressions occupy interchangeable positions in a
    batch family's statement. *)

val subst_slots : Ast.stmt -> Ast.expr array -> Ast.stmt
(** [subst_slots skel vec] rebuilds a statement from a skeleton and a
    slot vector: leaf [i] of {!fold_slots} (same traversal, same
    order) is replaced by [vec.(i)], every non-slot node is kept, and
    subquery interiors are preserved verbatim. For any statement [s]
    with slot vector [v = fold_slots snoc [] s],
    [subst_slots s (of_list v) = s]; substituting a skeleton-equal
    vector reconstructs the sibling family member — how batched
    execution rebuilds each member's statement. Raises
    [Invalid_argument] if [vec] has fewer entries than the skeleton
    has slots. *)

val expr_slots : Ast.expr -> Ast.expr list option
(** The literal leaves of one expression in {!fold_slots} order, or
    [None] when the expression contains a [Subquery]/[Exists] interior
    (whose leaves are invisible to the slot traversal, so the
    expression cannot be described as a slot window). Splicing an
    expression with [expr_slots e = Some leaves] into a statement
    occupies a contiguous slot window of width [List.length leaves]. *)

val referenced_tables : Ast.stmt -> string list
(** Table names mentioned in FROM clauses (deduplicated, in order). *)
