open Ast

let rec fold_exprs f acc e =
  let acc = f acc e in
  match e with
  | Null | Bool_lit _ | Int_lit _ | Dec_lit _ | Str_lit _ | Hex_lit _ | Star
  | Column _ ->
    acc
  | Call { args; _ } -> List.fold_left (fold_exprs f) acc args
  | Cast (e1, _) | Unop (_, e1) | Is_null (e1, _) -> fold_exprs f acc e1
  | Binop (_, a, b) -> fold_exprs f (fold_exprs f acc a) b
  | Row es | Array_lit es -> List.fold_left (fold_exprs f) acc es
  | Case { operand; branches; else_ } ->
    let acc =
      match operand with Some e1 -> fold_exprs f acc e1 | None -> acc
    in
    let acc =
      List.fold_left
        (fun acc (w, t) -> fold_exprs f (fold_exprs f acc w) t)
        acc branches
    in
    (match else_ with Some e1 -> fold_exprs f acc e1 | None -> acc)
  | In_list (e1, es) -> List.fold_left (fold_exprs f) (fold_exprs f acc e1) es
  | Between (e1, lo, hi) ->
    fold_exprs f (fold_exprs f (fold_exprs f acc e1) lo) hi
  | Subquery q | Exists q -> fold_query f acc q

and fold_select f acc s =
  let acc =
    List.fold_left
      (fun acc item ->
        match item with
        | Proj_star -> acc
        | Proj_expr (e, _) -> fold_exprs f acc e)
      acc s.projection
  in
  let rec fold_from acc = function
    | From_subquery (q, _) -> fold_query f acc q
    | From_table _ -> acc
    | From_join { left; right; on; _ } ->
      let acc = fold_from (fold_from acc left) right in
      (match on with Some e -> fold_exprs f acc e | None -> acc)
  in
  let acc = match s.from with Some fr -> fold_from acc fr | None -> acc in
  let acc = match s.where with Some e -> fold_exprs f acc e | None -> acc in
  let acc = List.fold_left (fold_exprs f) acc s.group_by in
  match s.having with Some e -> fold_exprs f acc e | None -> acc

and fold_body f acc = function
  | Body_select s -> fold_select f acc s
  | Body_union { left; right; _ } -> fold_body f (fold_body f acc left) right

and fold_query f acc q =
  let acc = fold_body f acc q.body in
  List.fold_left (fun acc { ord_expr; _ } -> fold_exprs f acc ord_expr) acc
    q.order_by

let rec fold_stmt_exprs f acc = function
  | Select_stmt q -> fold_query f acc q
  | Explain s -> fold_stmt_exprs f acc s
  | Create_table { columns; _ } ->
    List.fold_left
      (fun acc c ->
        match c.col_default with Some e -> fold_exprs f acc e | None -> acc)
      acc columns
  | Insert { rows; _ } ->
    List.fold_left (fun acc r -> List.fold_left (fold_exprs f) acc r) acc rows
  | Drop_table _ -> acc

let collect_calls fold x =
  let calls =
    fold (fun acc e -> match e with Call c -> c :: acc | _ -> acc) [] x
  in
  List.rev calls

let function_calls stmt = collect_calls (fun f acc -> fold_stmt_exprs f acc) stmt
let expr_function_calls e = collect_calls (fun f acc -> fold_exprs f acc) e
let count_function_exprs stmt = List.length (function_calls stmt)

let rec call_depth e =
  let sub_depth es =
    List.fold_left (fun m x -> Stdlib.max m (call_depth x)) 0 es
  in
  match e with
  | Null | Bool_lit _ | Int_lit _ | Dec_lit _ | Str_lit _ | Hex_lit _ | Star
  | Column _ ->
    0
  | Call { args; _ } -> 1 + sub_depth args
  | Cast (e1, _) | Unop (_, e1) | Is_null (e1, _) -> call_depth e1
  | Binop (_, a, b) -> sub_depth [ a; b ]
  | Row es | Array_lit es -> sub_depth es
  | In_list (e1, es) -> sub_depth (e1 :: es)
  | Case { operand; branches; else_ } ->
    let es =
      (match operand with Some e1 -> [ e1 ] | None -> [])
      @ List.concat_map (fun (w, t) -> [ w; t ]) branches
      @ (match else_ with Some e1 -> [ e1 ] | None -> [])
    in
    sub_depth es
  | Between (e1, lo, hi) -> sub_depth [ e1; lo; hi ]
  | Subquery q | Exists q -> query_call_depth q

and query_call_depth q =
  fold_query
    (fun m e -> match e with Call _ -> Stdlib.max m (call_depth e) | _ -> m)
    0 q

(* Bottom-up expression rewriting over a whole statement. *)
let rec rewrite_expr f e =
  let e' =
    match e with
    | Null | Bool_lit _ | Int_lit _ | Dec_lit _ | Str_lit _ | Hex_lit _ | Star
    | Column _ ->
      e
    | Call c -> Call { c with args = List.map (rewrite_expr f) c.args }
    | Cast (e1, t) -> Cast (rewrite_expr f e1, t)
    | Unop (op, e1) -> Unop (op, rewrite_expr f e1)
    | Binop (op, a, b) -> Binop (op, rewrite_expr f a, rewrite_expr f b)
    | Row es -> Row (List.map (rewrite_expr f) es)
    | Array_lit es -> Array_lit (List.map (rewrite_expr f) es)
    | Case { operand; branches; else_ } ->
      Case
        {
          operand = Option.map (rewrite_expr f) operand;
          branches =
            List.map
              (fun (w, t) -> (rewrite_expr f w, rewrite_expr f t))
              branches;
          else_ = Option.map (rewrite_expr f) else_;
        }
    | In_list (e1, es) -> In_list (rewrite_expr f e1, List.map (rewrite_expr f) es)
    | Is_null (e1, n) -> Is_null (rewrite_expr f e1, n)
    | Between (e1, lo, hi) ->
      Between (rewrite_expr f e1, rewrite_expr f lo, rewrite_expr f hi)
    | Subquery q -> Subquery (rewrite_query f q)
    | Exists q -> Exists (rewrite_query f q)
  in
  f e'

and rewrite_select f s =
  {
    s with
    projection =
      List.map
        (function
          | Proj_star -> Proj_star
          | Proj_expr (e, a) -> Proj_expr (rewrite_expr f e, a))
        s.projection;
    from =
      (let rec rw = function
         | From_subquery (q, a) -> From_subquery (rewrite_query f q, a)
         | From_table _ as t -> t
         | From_join { left; right; kind; on } ->
           From_join
             {
               left = rw left;
               right = rw right;
               kind;
               on = Option.map (rewrite_expr f) on;
             }
       in
       Option.map rw s.from);
    where = Option.map (rewrite_expr f) s.where;
    group_by = List.map (rewrite_expr f) s.group_by;
    having = Option.map (rewrite_expr f) s.having;
  }

and rewrite_body f = function
  | Body_select s -> Body_select (rewrite_select f s)
  | Body_union { all; left; right } ->
    Body_union { all; left = rewrite_body f left; right = rewrite_body f right }

and rewrite_query f q =
  {
    q with
    body = rewrite_body f q.body;
    order_by =
      List.map
        (fun o -> { o with ord_expr = rewrite_expr f o.ord_expr })
        q.order_by;
  }

let rec map_exprs f = function
  | Select_stmt q -> Select_stmt (rewrite_query f q)
  | Explain s -> Explain (map_exprs f s)
  | Create_table ct ->
    Create_table
      {
        ct with
        columns =
          List.map
            (fun c ->
              { c with col_default = Option.map (rewrite_expr f) c.col_default })
            ct.columns;
      }
  | Insert ins ->
    Insert { ins with rows = List.map (List.map (rewrite_expr f)) ins.rows }
  | Drop_table _ as s -> s

(* Pre-order call replacement: each Call node takes the next index before
   its children are visited, matching the numbering of [function_calls]. *)
let replace_nth_call stmt n replacement =
  let idx = ref (-1) in
  let rec renumber e =
    match e with
    | Call c ->
      incr idx;
      let here = !idx in
      let args = List.map renumber c.args in
      if here = n then replacement else Call { c with args }
    | Null | Bool_lit _ | Int_lit _ | Dec_lit _ | Str_lit _ | Hex_lit _ | Star
    | Column _ ->
      e
    | Cast (e1, t) -> Cast (renumber e1, t)
    | Unop (op, e1) -> Unop (op, renumber e1)
    | Binop (op, a, b) ->
      let a = renumber a in
      Binop (op, a, renumber b)
    | Row es -> Row (List.map renumber es)
    | Array_lit es -> Array_lit (List.map renumber es)
    | Case { operand; branches; else_ } ->
      let operand = Option.map renumber operand in
      let branches =
        List.map
          (fun (w, t) ->
            let w = renumber w in
            (w, renumber t))
          branches
      in
      Case { operand; branches; else_ = Option.map renumber else_ }
    | In_list (e1, es) ->
      let e1 = renumber e1 in
      In_list (e1, List.map renumber es)
    | Is_null (e1, neg) -> Is_null (renumber e1, neg)
    | Between (e1, lo, hi) ->
      let e1 = renumber e1 in
      let lo = renumber lo in
      Between (e1, lo, renumber hi)
    | Subquery q -> Subquery (renumber_query q)
    | Exists q -> Exists (renumber_query q)
  and renumber_select s =
    let projection =
      List.map
        (function
          | Proj_star -> Proj_star
          | Proj_expr (e, a) -> Proj_expr (renumber e, a))
        s.projection
    in
    let from =
      let rec rn = function
        | From_subquery (q, a) -> From_subquery (renumber_query q, a)
        | From_table _ as t -> t
        | From_join { left; right; kind; on } ->
          let left = rn left in
          let right = rn right in
          From_join { left; right; kind; on = Option.map renumber on }
      in
      Option.map rn s.from
    in
    let where = Option.map renumber s.where in
    let group_by = List.map renumber s.group_by in
    let having = Option.map renumber s.having in
    { s with projection; from; where; group_by; having }
  and renumber_body = function
    | Body_select s -> Body_select (renumber_select s)
    | Body_union { all; left; right } ->
      let left = renumber_body left in
      Body_union { all; left; right = renumber_body right }
  and renumber_query q =
    let body = renumber_body q.body in
    let order_by =
      List.map (fun o -> { o with ord_expr = renumber o.ord_expr }) q.order_by
    in
    { q with body; order_by }
  in
  match stmt with
  | Select_stmt q ->
    let q' = renumber_query q in
    if !idx >= n then Some (Select_stmt q') else None
  | Insert ins ->
    let rows = List.map (List.map renumber) ins.rows in
    if !idx >= n then Some (Insert { ins with rows }) else None
  | Explain _ | Create_table _ | Drop_table _ -> None

(* ----- structural fingerprinting -----

   The [fp_*] walkers compute FNV-1a over a canonical post-order
   serialization of the statement: children are folded into the hash before their node's
   tag, every variable-length sequence is terminated by its length, and
   strings are hashed byte-wise then length-terminated, so two distinct
   trees never serialize to the same byte stream. The hash state is an
   immediate int threaded through the traversal and every step is an
   xor/multiply — no per-node allocation, no [Sql_pp] round-trip.

   Arithmetic is on OCaml's native int (63-bit on 64-bit platforms) with
   the standard 64-bit FNV prime; the offset basis has its top bit
   dropped to fit. The full-statement walk ([fp_stmt]) hashes DDL/DML
   for [fingerprint_skeleton] below, which normalizes literal slots in
   everything else. *)

let fnv_prime = 0x100000001B3
let fnv_basis = 0x4bf29ce484222325 (* 64-bit FNV basis, top bit cleared *)

let unop_tag = function Ast.Neg -> 1 | Ast.Not -> 2 | Ast.Bit_not -> 3

let binop_tag = function
  | Ast.Add -> 1 | Ast.Sub -> 2 | Ast.Mul -> 3 | Ast.Div -> 4 | Ast.Mod -> 5
  | Ast.Concat -> 6 | Ast.Eq -> 7 | Ast.Neq -> 8 | Ast.Lt -> 9 | Ast.Le -> 10
  | Ast.Gt -> 11 | Ast.Ge -> 12 | Ast.And -> 13 | Ast.Or -> 14
  | Ast.Like -> 15 | Ast.Bit_and -> 16 | Ast.Bit_or -> 17 | Ast.Bit_xor -> 18
  | Ast.Shift_l -> 19 | Ast.Shift_r -> 20

let join_tag = function Ast.Inner -> 1 | Ast.Left_outer -> 2 | Ast.Cross -> 3

(* Accumulator-passing: the hash state is threaded as an immediate int
   through top-level functions, so a fingerprint call allocates
   nothing but the final [int64] box — no closure group is rebuilt per
   call and no ref cell escapes to the heap. *)

let[@inline] mix h n = (h lxor n) * fnv_prime

let rec fp_str_go h s i len =
  if i >= len then mix h len
  else fp_str_go (mix h (Char.code (String.unsafe_get s i))) s (i + 1) len

let fp_str h s = fp_str_go h s 0 (String.length s)
let fp_opt f h = function None -> mix h 0 | Some x -> mix (f h x) 1

let rec fp_list_go f h n = function
  | [] -> mix h n
  | x :: tl -> fp_list_go f (f h x) (n + 1) tl

let fp_list f h xs = fp_list_go f h 0 xs

let rec fp_ty h = function
  | T_bool -> mix h 101
  | T_smallint -> mix h 102
  | T_int -> mix h 103
  | T_bigint -> mix h 104
  | T_unsigned -> mix h 105
  | T_decimal ps ->
    mix (fp_opt (fun h (p, s) -> mix (mix h p) s) h ps) 106
  | T_float -> mix h 107
  | T_double -> mix h 108
  | T_char n -> mix (fp_opt mix h n) 109
  | T_varchar n -> mix (fp_opt mix h n) 110
  | T_text -> mix h 111
  | T_blob -> mix h 112
  | T_date -> mix h 113
  | T_time -> mix h 114
  | T_datetime -> mix h 115
  | T_interval_t -> mix h 116
  | T_json -> mix h 117
  | T_array_t t -> mix (fp_ty h t) 118
  | T_map_t (k, v) -> mix (fp_ty (fp_ty h k) v) 119
  | T_inet -> mix h 120
  | T_uuid -> mix h 121
  | T_geometry -> mix h 122
  | T_xml -> mix h 123
  | T_row_t -> mix h 124
  | T_named (s, ns) -> mix (fp_list mix (fp_str h s) ns) 125

let rec fp_expr h = function
  | Null -> mix h 140
  | Bool_lit b -> mix (mix h (if b then 1 else 0)) 141
  | Int_lit s -> mix (fp_str h s) 142
  | Dec_lit s -> mix (fp_str h s) 143
  | Str_lit s -> mix (fp_str h s) 144
  | Hex_lit s -> mix (fp_str h s) 145
  | Star -> mix h 146
  | Column (q, c) -> mix (fp_str (fp_opt fp_str h q) c) 147
  | Call { fname; args; distinct } ->
    mix (mix (fp_list fp_expr (fp_str h fname) args)
           (if distinct then 1 else 0))
      148
  | Cast (e, t) -> mix (fp_ty (fp_expr h e) t) 149
  | Unop (op, e) -> mix (mix (fp_expr h e) (unop_tag op)) 150
  | Binop (op, a, b) ->
    mix (mix (fp_expr (fp_expr h a) b) (binop_tag op)) 151
  | Row es -> mix (fp_list fp_expr h es) 152
  | Array_lit es -> mix (fp_list fp_expr h es) 153
  | Case { operand; branches; else_ } ->
    let h = fp_opt fp_expr h operand in
    let h = fp_list (fun h (w, t) -> fp_expr (fp_expr h w) t) h branches in
    mix (fp_opt fp_expr h else_) 154
  | In_list (e, es) -> mix (fp_list fp_expr (fp_expr h e) es) 155
  | Is_null (e, neg) -> mix (mix (fp_expr h e) (if neg then 1 else 0)) 156
  | Between (e, lo, hi) ->
    mix (fp_expr (fp_expr (fp_expr h e) lo) hi) 157
  | Subquery q -> mix (fp_query h q) 158
  | Exists q -> mix (fp_query h q) 159

and fp_proj h = function
  | Proj_star -> mix h 170
  | Proj_expr (e, a) -> mix (fp_opt fp_str (fp_expr h e) a) 171

and fp_from h = function
  | From_table (t, a) -> mix (fp_opt fp_str (fp_str h t) a) 172
  | From_subquery (q, a) -> mix (fp_str (fp_query h q) a) 173
  | From_join { left; right; kind; on } ->
    let h = fp_from (fp_from h left) right in
    mix (fp_opt fp_expr (mix h (join_tag kind)) on) 174

and fp_select h s =
  let h = mix h (if s.sel_distinct then 1 else 0) in
  let h = fp_list fp_proj h s.projection in
  let h = fp_opt fp_from h s.from in
  let h = fp_opt fp_expr h s.where in
  let h = fp_list fp_expr h s.group_by in
  mix (fp_opt fp_expr h s.having) 175

and fp_body h = function
  | Body_select s -> mix (fp_select h s) 176
  | Body_union { all; left; right } ->
    mix (mix (fp_body (fp_body h left) right) (if all then 1 else 0)) 177

and fp_query h q =
  let h = fp_body h q.body in
  let h =
    fp_list
      (fun h { ord_expr; asc } ->
        mix (fp_expr h ord_expr) (if asc then 1 else 0))
      h q.order_by
  in
  mix (fp_opt mix h q.limit) 178

let fp_column_def h c =
  let h = fp_ty (fp_str h c.col_name) c.col_type in
  let h = mix h (if c.col_not_null then 1 else 0) in
  mix (fp_opt fp_expr h c.col_default) 179

let rec fp_stmt h = function
  | Select_stmt q -> mix (fp_query h q) 190
  | Explain s -> mix (fp_stmt h s) 191
  | Create_table { tbl_name; columns; if_not_exists } ->
    let h = fp_list fp_column_def (fp_str h tbl_name) columns in
    mix (mix h (if if_not_exists then 1 else 0)) 192
  | Insert { ins_table; ins_columns; rows } ->
    let h = fp_list fp_str (fp_str h ins_table) ins_columns in
    mix (fp_list (fp_list fp_expr) h rows) 193
  | Drop_table { drop_name; if_exists } ->
    mix (mix (fp_str h drop_name) (if if_exists then 1 else 0)) 194

(* The AST is strings/ints/bools/variants all the way down, so the
   polymorphic structural equality is exactly statement identity. *)
let equal_stmt (a : Ast.stmt) (b : Ast.stmt) = a = b

(* ----- slot-normalized skeletons -----

   A statement *skeleton* is the statement with its literal leaves
   ([Null]/[Bool_lit]/[Int_lit]/[Dec_lit]/[Str_lit]/[Hex_lit]) blanked
   out — exactly the positions that
   [Patterns.with_arg]/[literal_arg_variants] vary when fanning one
   pattern into a case family. All six literal constructors collapse
   into ONE slot tag: a boundary-argument set mixes NULL, integers,
   strings and hex blobs at the same position, and keeping the
   constructors distinct would give each literal kind its own skeleton
   and shrink plan reuse by the size of the argument set. Literals
   inside [Subquery]/[Exists]/[From_subquery] interiors are NOT slots:
   P2.2 plants boundary arguments inside subqueries whose result shape
   (and hence the enclosing statement's behavior) depends on those
   payloads, so subquery interiors are hashed and compared in full.

   [fingerprint_skeleton]/[equal_skeleton] are the cache key pair for
   the closure compiler: statements with equal skeletons share one
   compiled plan, and [fold_slots] extracts the varying literal nodes in
   the compiler's slot order (pre-order, projection → from → where →
   group_by → having → order_by, same field order as [fp_stmt]).

   A statement containing a subquery in slot-bearing position has NO
   skeleton ([fingerprint_skeleton] returns [None]): its case family
   varies literals *inside* the interior, so every family member is a
   distinct skeleton anyway — caching them would compile each statement
   once for a plan that is never reused, and their full-interior hashes
   are the most expensive to compute. The fingerprint walk aborts on
   the first subquery instead. *)

exception Unshared

let rec fp_skel_expr h = function
  (* one shared tag: every literal kind is the same slot *)
  | Null | Bool_lit _ | Int_lit _ | Dec_lit _ | Str_lit _ | Hex_lit _ ->
    mix h 142
  | Star -> mix h 146
  | Column (q, c) -> mix (fp_str (fp_opt fp_str h q) c) 147
  | Call { fname; args; distinct } ->
    mix (mix (fp_list fp_skel_expr (fp_str h fname) args)
           (if distinct then 1 else 0))
      148
  | Cast (e, t) -> mix (fp_ty (fp_skel_expr h e) t) 149
  | Unop (op, e) -> mix (mix (fp_skel_expr h e) (unop_tag op)) 150
  | Binop (op, a, b) ->
    mix (mix (fp_skel_expr (fp_skel_expr h a) b) (binop_tag op)) 151
  | Row es -> mix (fp_list fp_skel_expr h es) 152
  | Array_lit es -> mix (fp_list fp_skel_expr h es) 153
  | Case { operand; branches; else_ } ->
    let h = fp_opt fp_skel_expr h operand in
    let h =
      fp_list (fun h (w, t) -> fp_skel_expr (fp_skel_expr h w) t) h branches
    in
    mix (fp_opt fp_skel_expr h else_) 154
  | In_list (e, es) -> mix (fp_list fp_skel_expr (fp_skel_expr h e) es) 155
  | Is_null (e, neg) -> mix (mix (fp_skel_expr h e) (if neg then 1 else 0)) 156
  | Between (e, lo, hi) ->
    mix (fp_skel_expr (fp_skel_expr (fp_skel_expr h e) lo) hi) 157
  (* subquery interiors make the statement unshareable *)
  | Subquery _ | Exists _ -> raise Unshared

and fp_skel_from h = function
  | From_table (t, a) -> mix (fp_opt fp_str (fp_str h t) a) 172
  | From_subquery _ -> raise Unshared
  | From_join { left; right; kind; on } ->
    let h = fp_skel_from (fp_skel_from h left) right in
    mix (fp_opt fp_skel_expr (mix h (join_tag kind)) on) 174

and fp_skel_select h s =
  let h = mix h (if s.sel_distinct then 1 else 0) in
  let h =
    fp_list
      (fun h -> function
        | Proj_star -> mix h 170
        | Proj_expr (e, a) -> mix (fp_opt fp_str (fp_skel_expr h e) a) 171)
      h s.projection
  in
  let h = fp_opt fp_skel_from h s.from in
  let h = fp_opt fp_skel_expr h s.where in
  let h = fp_list fp_skel_expr h s.group_by in
  mix (fp_opt fp_skel_expr h s.having) 175

and fp_skel_body h = function
  | Body_select s -> mix (fp_skel_select h s) 176
  | Body_union { all; left; right } ->
    mix
      (mix (fp_skel_body (fp_skel_body h left) right) (if all then 1 else 0))
      177

and fp_skel_query h q =
  let h = fp_skel_body h q.body in
  let h =
    fp_list
      (fun h { ord_expr; asc } ->
        mix (fp_skel_expr h ord_expr) (if asc then 1 else 0))
      h q.order_by
  in
  mix (fp_opt mix h q.limit) 178

let rec fp_skel_stmt h = function
  | Select_stmt q -> mix (fp_skel_query h q) 190
  | Explain s -> mix (fp_skel_stmt h s) 191
  (* DDL/DML carry no slots: their skeleton is the full statement *)
  | Create_table _ | Insert _ | Drop_table _ as s -> fp_stmt h s

let fingerprint_skeleton stmt =
  match fp_skel_stmt fnv_basis stmt with
  | h -> Some (Int64.of_int h)
  | exception Unshared -> None

let rec eq_skel_expr a b =
  match (a, b) with
  | Star, Star -> true
  (* slot positions: any literal matches any literal — the compiled
     plan dispatches on the filled-in node's constructor at run time *)
  | ( (Null | Bool_lit _ | Int_lit _ | Dec_lit _ | Str_lit _ | Hex_lit _),
      (Null | Bool_lit _ | Int_lit _ | Dec_lit _ | Str_lit _ | Hex_lit _) ) ->
    true
  | Column (q1, c1), Column (q2, c2) -> q1 = q2 && c1 = c2
  | Call c1, Call c2 ->
    c1.fname = c2.fname && c1.distinct = c2.distinct
    && eq_skel_list c1.args c2.args
  | Cast (e1, t1), Cast (e2, t2) -> t1 = t2 && eq_skel_expr e1 e2
  | Unop (o1, e1), Unop (o2, e2) -> o1 = o2 && eq_skel_expr e1 e2
  | Binop (o1, a1, b1), Binop (o2, a2, b2) ->
    o1 = o2 && eq_skel_expr a1 a2 && eq_skel_expr b1 b2
  | Row e1, Row e2 | Array_lit e1, Array_lit e2 -> eq_skel_list e1 e2
  | Case c1, Case c2 ->
    eq_skel_opt c1.operand c2.operand
    && List.compare_lengths c1.branches c2.branches = 0
    && List.for_all2
         (fun (w1, t1) (w2, t2) -> eq_skel_expr w1 w2 && eq_skel_expr t1 t2)
         c1.branches c2.branches
    && eq_skel_opt c1.else_ c2.else_
  | In_list (e1, l1), In_list (e2, l2) ->
    eq_skel_expr e1 e2 && eq_skel_list l1 l2
  | Is_null (e1, n1), Is_null (e2, n2) -> n1 = n2 && eq_skel_expr e1 e2
  | Between (e1, lo1, hi1), Between (e2, lo2, hi2) ->
    eq_skel_expr e1 e2 && eq_skel_expr lo1 lo2 && eq_skel_expr hi1 hi2
  (* subquery interiors must match in full *)
  | Subquery q1, Subquery q2 | Exists q1, Exists q2 -> q1 = q2
  | _, _ -> false

and eq_skel_list l1 l2 =
  List.compare_lengths l1 l2 = 0 && List.for_all2 eq_skel_expr l1 l2

and eq_skel_opt o1 o2 =
  match (o1, o2) with
  | None, None -> true
  | Some e1, Some e2 -> eq_skel_expr e1 e2
  | _, _ -> false

let eq_skel_from f1 f2 =
  let rec go f1 f2 =
    match (f1, f2) with
    | From_table (t1, a1), From_table (t2, a2) -> t1 = t2 && a1 = a2
    | From_subquery (q1, a1), From_subquery (q2, a2) -> a1 = a2 && q1 = q2
    | From_join j1, From_join j2 ->
      j1.kind = j2.kind && go j1.left j2.left && go j1.right j2.right
      && eq_skel_opt j1.on j2.on
    | _, _ -> false
  in
  go f1 f2

let eq_skel_select s1 s2 =
  s1.sel_distinct = s2.sel_distinct
  && List.compare_lengths s1.projection s2.projection = 0
  && List.for_all2
       (fun p1 p2 ->
         match (p1, p2) with
         | Proj_star, Proj_star -> true
         | Proj_expr (e1, a1), Proj_expr (e2, a2) ->
           a1 = a2 && eq_skel_expr e1 e2
         | _, _ -> false)
       s1.projection s2.projection
  && (match (s1.from, s2.from) with
      | None, None -> true
      | Some f1, Some f2 -> eq_skel_from f1 f2
      | _, _ -> false)
  && eq_skel_opt s1.where s2.where
  && eq_skel_list s1.group_by s2.group_by
  && eq_skel_opt s1.having s2.having

let rec eq_skel_body b1 b2 =
  match (b1, b2) with
  | Body_select s1, Body_select s2 -> eq_skel_select s1 s2
  | Body_union u1, Body_union u2 ->
    u1.all = u2.all && eq_skel_body u1.left u2.left
    && eq_skel_body u1.right u2.right
  | _, _ -> false

let eq_skel_query q1 q2 =
  q1.limit = q2.limit
  && List.compare_lengths q1.order_by q2.order_by = 0
  && List.for_all2
       (fun o1 o2 -> o1.asc = o2.asc && eq_skel_expr o1.ord_expr o2.ord_expr)
       q1.order_by q2.order_by
  && eq_skel_body q1.body q2.body

let rec equal_skeleton (a : Ast.stmt) (b : Ast.stmt) =
  match (a, b) with
  | Select_stmt q1, Select_stmt q2 -> eq_skel_query q1 q2
  | Explain s1, Explain s2 -> equal_skeleton s1 s2
  | (Create_table _ | Insert _ | Drop_table _), _ -> a = b
  | _, _ -> false

let rec slot_expr f acc = function
  | (Null | Bool_lit _ | Int_lit _ | Dec_lit _ | Str_lit _ | Hex_lit _) as e
    ->
    f acc e
  | Star | Column _ -> acc
  | Call { args; _ } -> List.fold_left (slot_expr f) acc args
  | Cast (e, _) | Unop (_, e) | Is_null (e, _) -> slot_expr f acc e
  | Binop (_, a, b) -> slot_expr f (slot_expr f acc a) b
  | Row es | Array_lit es -> List.fold_left (slot_expr f) acc es
  | Case { operand; branches; else_ } ->
    let acc =
      match operand with Some e -> slot_expr f acc e | None -> acc
    in
    let acc =
      List.fold_left
        (fun acc (w, t) -> slot_expr f (slot_expr f acc w) t)
        acc branches
    in
    (match else_ with Some e -> slot_expr f acc e | None -> acc)
  | In_list (e, es) -> List.fold_left (slot_expr f) (slot_expr f acc e) es
  | Between (e, lo, hi) ->
    slot_expr f (slot_expr f (slot_expr f acc e) lo) hi
  | Subquery _ | Exists _ -> acc

let rec slot_from f acc = function
  | From_table _ | From_subquery _ -> acc
  | From_join { left; right; on; _ } ->
    let acc = slot_from f (slot_from f acc left) right in
    (match on with Some e -> slot_expr f acc e | None -> acc)

let slot_select f acc s =
  let acc =
    List.fold_left
      (fun acc -> function
        | Proj_star -> acc
        | Proj_expr (e, _) -> slot_expr f acc e)
      acc s.projection
  in
  let acc = match s.from with Some fr -> slot_from f acc fr | None -> acc in
  let acc = match s.where with Some e -> slot_expr f acc e | None -> acc in
  let acc = List.fold_left (slot_expr f) acc s.group_by in
  match s.having with Some e -> slot_expr f acc e | None -> acc

let rec slot_body f acc = function
  | Body_select s -> slot_select f acc s
  | Body_union { left; right; _ } -> slot_body f (slot_body f acc left) right

let slot_query f acc q =
  let acc = slot_body f acc q.body in
  List.fold_left
    (fun acc { ord_expr; _ } -> slot_expr f acc ord_expr)
    acc q.order_by

let rec fold_slots f acc = function
  | Select_stmt q -> slot_query f acc q
  | Explain s -> fold_slots f acc s
  | Create_table _ | Insert _ | Drop_table _ -> acc

let equal_skeleton_expr = eq_skel_expr

(* Rebuild a statement from its skeleton and a slot vector. The
   traversal mirrors slot_expr/slot_from/slot_select/slot_query node
   for node, so leaf [i] of [fold_slots] is replaced by [vec.(i)];
   subquery/derived-table interiors are kept verbatim, exactly as
   fold_slots skips them. Record fields are bound with [let] before
   construction because OCaml's field evaluation order is unspecified
   and the counter threads left to right. *)
let subst_slots stmt vec =
  let i = ref 0 in
  let next () =
    let v = vec.(!i) in
    incr i;
    v
  in
  let rec sub_expr e =
    match e with
    | Null | Bool_lit _ | Int_lit _ | Dec_lit _ | Str_lit _ | Hex_lit _ ->
      next ()
    | Star | Column _ -> e
    | Call c -> Call { c with args = List.map sub_expr c.args }
    | Cast (e1, ty) -> Cast (sub_expr e1, ty)
    | Unop (op, e1) -> Unop (op, sub_expr e1)
    | Is_null (e1, neg) -> Is_null (sub_expr e1, neg)
    | Binop (op, a, b) ->
      let a = sub_expr a in
      Binop (op, a, sub_expr b)
    | Row es -> Row (List.map sub_expr es)
    | Array_lit es -> Array_lit (List.map sub_expr es)
    | Case { operand; branches; else_ } ->
      let operand = Option.map sub_expr operand in
      let branches =
        List.map
          (fun (w, t) ->
            let w = sub_expr w in
            (w, sub_expr t))
          branches
      in
      Case { operand; branches; else_ = Option.map sub_expr else_ }
    | In_list (e1, es) ->
      let e1 = sub_expr e1 in
      In_list (e1, List.map sub_expr es)
    | Between (e1, lo, hi) ->
      let e1 = sub_expr e1 in
      let lo = sub_expr lo in
      Between (e1, lo, sub_expr hi)
    | Subquery _ | Exists _ -> e
  in
  let rec sub_from f =
    match f with
    | From_table _ | From_subquery _ -> f
    | From_join j ->
      let left = sub_from j.left in
      let right = sub_from j.right in
      From_join { j with left; right; on = Option.map sub_expr j.on }
  in
  let sub_select s =
    let projection =
      List.map
        (function
          | Proj_star -> Proj_star
          | Proj_expr (e, alias) -> Proj_expr (sub_expr e, alias))
        s.projection
    in
    let from = Option.map sub_from s.from in
    let where = Option.map sub_expr s.where in
    let group_by = List.map sub_expr s.group_by in
    let having = Option.map sub_expr s.having in
    { s with projection; from; where; group_by; having }
  in
  let rec sub_body = function
    | Body_select s -> Body_select (sub_select s)
    | Body_union u ->
      let left = sub_body u.left in
      Body_union { u with left; right = sub_body u.right }
  in
  let sub_query q =
    let body = sub_body q.body in
    let order_by =
      List.map (fun o -> { o with ord_expr = sub_expr o.ord_expr }) q.order_by
    in
    { q with body; order_by }
  in
  let rec sub_stmt = function
    | Select_stmt q -> Select_stmt (sub_query q)
    | Explain s -> Explain (sub_stmt s)
    | (Create_table _ | Insert _ | Drop_table _) as s -> s
  in
  sub_stmt stmt

let expr_slots e =
  let exception Unslotted in
  let rec go acc = function
    | (Null | Bool_lit _ | Int_lit _ | Dec_lit _ | Str_lit _ | Hex_lit _) as l
      ->
      l :: acc
    | Star | Column _ -> acc
    | Call { args; _ } -> List.fold_left go acc args
    | Cast (e1, _) | Unop (_, e1) | Is_null (e1, _) -> go acc e1
    | Binop (_, a, b) -> go (go acc a) b
    | Row es | Array_lit es -> List.fold_left go acc es
    | Case { operand; branches; else_ } ->
      let acc = match operand with Some e -> go acc e | None -> acc in
      let acc =
        List.fold_left (fun acc (w, t) -> go (go acc w) t) acc branches
      in
      (match else_ with Some e -> go acc e | None -> acc)
    | In_list (e1, es) -> List.fold_left go (go acc e1) es
    | Between (e1, lo, hi) -> go (go (go acc e1) lo) hi
    (* a subquery interior is opaque to the slot traversal: an
       expression containing one cannot be described by a slot window
       of the enclosing statement *)
    | Subquery _ | Exists _ -> raise Unslotted
  in
  match go [] e with
  | leaves -> Some (List.rev leaves)
  | exception Unslotted -> None

let referenced_tables stmt =
  let rec of_from acc = function
    | From_table (t, _) -> t :: acc
    | From_subquery (q, _) -> of_query acc q
    | From_join { left; right; _ } -> of_from (of_from acc left) right
  and of_body acc = function
    | Body_select s ->
      (match s.from with Some fr -> of_from acc fr | None -> acc)
    | Body_union { left; right; _ } -> of_body (of_body acc left) right
  and of_query acc q = of_body acc q.body in
  let rec base_of = function
    | Select_stmt q -> of_query [] q
    | Insert { ins_table; _ } -> [ ins_table ]
    | Explain s -> base_of s
    | Create_table _ | Drop_table _ -> []
  in
  let base = base_of stmt in
  let from_exprs =
    fold_stmt_exprs
      (fun acc e ->
        match e with Subquery q | Exists q -> of_query acc q | _ -> acc)
      [] stmt
  in
  let all = List.rev base @ List.rev from_exprs in
  List.fold_left (fun acc t -> if List.mem t acc then acc else acc @ [ t ]) [] all
