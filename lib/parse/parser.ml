open Sqlfun_ast
open Sqlfun_lex

type state = { toks : Lexer.located array; mutable pos : int }

exception Parse_error of { msg : string; at : int }

let fail st msg =
  let at = st.toks.(st.pos).Lexer.pos in
  raise (Parse_error { msg; at })

let peek st = st.toks.(st.pos).Lexer.tok
let peek2 st =
  if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1).Lexer.tok
  else Lexer.EOF

let advance st = st.pos <- st.pos + 1

let expect st tok what =
  if peek st = tok then advance st
  else
    fail st
      (Printf.sprintf "expected %s, found %s" what
         (Lexer.token_to_string (peek st)))

(* Keywords are matched case-insensitively against identifier tokens. *)
let is_kw st kw =
  match peek st with
  | Lexer.IDENT s -> String.uppercase_ascii s = kw
  | _ -> false

let eat_kw st kw =
  if is_kw st kw then begin
    advance st;
    true
  end
  else false

let expect_kw st kw =
  if not (eat_kw st kw) then
    fail st
      (Printf.sprintf "expected %s, found %s" kw
         (Lexer.token_to_string (peek st)))

let ident st =
  match peek st with
  | Lexer.IDENT s ->
    advance st;
    s
  | _ -> fail st "expected identifier"

(* Reserved words that terminate an expression or introduce clauses; an
   identifier equal to one of these is never parsed as a column name. *)
let reserved =
  [
    "SELECT"; "FROM"; "WHERE"; "GROUP"; "BY"; "HAVING"; "ORDER"; "LIMIT";
    "UNION"; "ALL"; "AS"; "AND"; "OR"; "NOT"; "WHEN"; "THEN"; "ELSE"; "END";
    "IN"; "IS"; "BETWEEN"; "LIKE"; "CREATE"; "TABLE"; "INTO";
    "VALUES"; "DROP"; "DEFAULT"; "DESC"; "ASC"; "DISTINCT"; "EXISTS"; "ON";
    (* INSERT is deliberately absent: MySQL's INSERT(str,pos,len,newstr)
       is a built-in string function, and statement dispatch recognizes
       the INSERT INTO form before expressions are parsed. *)
  ]

let is_reserved s = List.mem (String.uppercase_ascii s) reserved

(* ----- type names ----- *)

let int_args st =
  (* optional parenthesized integer list *)
  if peek st = Lexer.LPAREN then begin
    advance st;
    let rec go acc =
      match peek st with
      | Lexer.INT s ->
        let n =
          match int_of_string_opt s with
          | Some n -> n
          | None -> fail st "type argument out of range"
        in
        advance st;
        let acc = n :: acc in
        if peek st = Lexer.COMMA then begin
          advance st;
          go acc
        end
        else acc
      | _ -> fail st "expected integer in type arguments"
    in
    let args = List.rev (go []) in
    expect st Lexer.RPAREN ")";
    args
  end
  else []

let rec type_name st =
  let name = String.uppercase_ascii (ident st) in
  match name with
  | "BOOLEAN" | "BOOL" -> Ast.T_bool
  | "SMALLINT" | "TINYINT" -> Ast.T_smallint
  | "INT" | "INTEGER" | "INT4" -> Ast.T_int
  | "BIGINT" | "INT8" | "SIGNED" -> Ast.T_bigint
  | "UNSIGNED" -> Ast.T_unsigned
  | "DECIMAL" | "NUMERIC" ->
    (match int_args st with
     | [] -> Ast.T_decimal None
     | [ p ] -> Ast.T_decimal (Some (p, 0))
     | [ p; s ] -> Ast.T_decimal (Some (p, s))
     | _ -> fail st "DECIMAL takes at most two arguments")
  | "FLOAT" | "REAL" | "FLOAT4" -> Ast.T_float
  | "DOUBLE" | "FLOAT8" ->
    (* MySQL spells it DOUBLE PRECISION *)
    ignore (eat_kw st "PRECISION");
    Ast.T_double
  | "CHAR" | "CHARACTER" ->
    (match int_args st with
     | [] -> Ast.T_char None
     | [ n ] -> Ast.T_char (Some n)
     | _ -> fail st "CHAR takes one argument")
  | "VARCHAR" ->
    (match int_args st with
     | [] -> Ast.T_varchar None
     | [ n ] -> Ast.T_varchar (Some n)
     | _ -> fail st "VARCHAR takes one argument")
  | "TEXT" | "STRING" -> Ast.T_text
  | "BLOB" | "BYTEA" | "BINARY" | "VARBINARY" ->
    ignore (int_args st);
    Ast.T_blob
  | "DATE" -> Ast.T_date
  | "TIME" -> Ast.T_time
  | "DATETIME" | "TIMESTAMP" -> Ast.T_datetime
  | "INTERVAL" -> Ast.T_interval_t
  | "JSON" | "JSONB" -> Ast.T_json
  | "INET" | "INET4" | "INET6" -> Ast.T_inet
  | "UUID" -> Ast.T_uuid
  | "GEOMETRY" -> Ast.T_geometry
  | "XML" -> Ast.T_xml
  | "ROW" -> Ast.T_row_t
  | "ARRAY" ->
    if peek st = Lexer.LPAREN then begin
      advance st;
      let elt = type_name st in
      expect st Lexer.RPAREN ")";
      Ast.T_array_t elt
    end
    else Ast.T_array_t Ast.T_text
  | "MAP" ->
    expect st Lexer.LPAREN "(";
    let k = type_name st in
    expect st Lexer.COMMA ",";
    let v = type_name st in
    expect st Lexer.RPAREN ")";
    Ast.T_map_t (k, v)
  | other -> Ast.T_named (other, int_args st)

(* ----- expressions ----- *)

let rec parse_expr st = parse_or st

and parse_or st =
  let rec loop acc =
    if eat_kw st "OR" then loop (Ast.Binop (Ast.Or, acc, parse_and st))
    else acc
  in
  loop (parse_and st)

and parse_and st =
  let rec loop acc =
    if eat_kw st "AND" then loop (Ast.Binop (Ast.And, acc, parse_not st))
    else acc
  in
  loop (parse_not st)

and parse_not st =
  if is_kw st "NOT" && not (peek2 st = Lexer.EOF) then begin
    advance st;
    Ast.Unop (Ast.Not, parse_not st)
  end
  else parse_comparison st

and parse_comparison st =
  let lhs = parse_bit_or st in
  let rec loop acc =
    match peek st with
    | Lexer.EQ ->
      advance st;
      loop (Ast.Binop (Ast.Eq, acc, parse_bit_or st))
    | Lexer.NEQ ->
      advance st;
      loop (Ast.Binop (Ast.Neq, acc, parse_bit_or st))
    | Lexer.LT ->
      advance st;
      loop (Ast.Binop (Ast.Lt, acc, parse_bit_or st))
    | Lexer.LE ->
      advance st;
      loop (Ast.Binop (Ast.Le, acc, parse_bit_or st))
    | Lexer.GT ->
      advance st;
      loop (Ast.Binop (Ast.Gt, acc, parse_bit_or st))
    | Lexer.GE ->
      advance st;
      loop (Ast.Binop (Ast.Ge, acc, parse_bit_or st))
    | Lexer.IDENT s ->
      (match String.uppercase_ascii s with
       | "LIKE" ->
         advance st;
         loop (Ast.Binop (Ast.Like, acc, parse_bit_or st))
       | "IS" ->
         advance st;
         let negated = eat_kw st "NOT" in
         expect_kw st "NULL";
         loop (Ast.Is_null (acc, negated))
       | "IN" ->
         advance st;
         expect st Lexer.LPAREN "(";
         let items =
           if is_kw st "SELECT" then begin
             let q = parse_query st in
             [ Ast.Subquery q ]
           end
           else parse_expr_list st
         in
         expect st Lexer.RPAREN ")";
         loop (Ast.In_list (acc, items))
       | "BETWEEN" ->
         advance st;
         let lo = parse_bit_or st in
         expect_kw st "AND";
         let hi = parse_bit_or st in
         loop (Ast.Between (acc, lo, hi))
       | "NOT" ->
         (* x NOT LIKE / NOT IN / NOT BETWEEN *)
         advance st;
         let inner =
           if eat_kw st "LIKE" then
             Ast.Binop (Ast.Like, acc, parse_bit_or st)
           else if eat_kw st "IN" then begin
             expect st Lexer.LPAREN "(";
             let items = parse_expr_list st in
             expect st Lexer.RPAREN ")";
             Ast.In_list (acc, items)
           end
           else if eat_kw st "BETWEEN" then begin
             let lo = parse_bit_or st in
             expect_kw st "AND";
             let hi = parse_bit_or st in
             Ast.Between (acc, lo, hi)
           end
           else fail st "expected LIKE, IN or BETWEEN after NOT"
         in
         loop (Ast.Unop (Ast.Not, inner))
       | _ -> acc)
    | _ -> acc
  in
  loop lhs

and parse_bit_or st =
  let rec loop acc =
    match peek st with
    | Lexer.PIPE ->
      advance st;
      loop (Ast.Binop (Ast.Bit_or, acc, parse_bit_and st))
    | Lexer.CARET ->
      advance st;
      loop (Ast.Binop (Ast.Bit_xor, acc, parse_bit_and st))
    | _ -> acc
  in
  loop (parse_bit_and st)

and parse_bit_and st =
  let rec loop acc =
    if peek st = Lexer.AMP then begin
      advance st;
      loop (Ast.Binop (Ast.Bit_and, acc, parse_shift st))
    end
    else acc
  in
  loop (parse_shift st)

and parse_shift st =
  let rec loop acc =
    match peek st with
    | Lexer.SHIFT_L ->
      advance st;
      loop (Ast.Binop (Ast.Shift_l, acc, parse_additive st))
    | Lexer.SHIFT_R ->
      advance st;
      loop (Ast.Binop (Ast.Shift_r, acc, parse_additive st))
    | _ -> acc
  in
  loop (parse_additive st)

and parse_additive st =
  let rec loop acc =
    match peek st with
    | Lexer.PLUS ->
      advance st;
      loop (Ast.Binop (Ast.Add, acc, parse_multiplicative st))
    | Lexer.MINUS ->
      advance st;
      loop (Ast.Binop (Ast.Sub, acc, parse_multiplicative st))
    | _ -> acc
  in
  loop (parse_multiplicative st)

and parse_multiplicative st =
  let rec loop acc =
    match peek st with
    | Lexer.STAR ->
      (* Only treat [*] as multiplication when a right operand follows;
         otherwise it is the bare-star argument / projection. *)
      (match peek2 st with
       | Lexer.RPAREN | Lexer.COMMA | Lexer.SEMI | Lexer.EOF -> acc
       | Lexer.IDENT s when is_reserved s -> acc
       | _ ->
         advance st;
         loop (Ast.Binop (Ast.Mul, acc, parse_concat st)))
    | Lexer.SLASH ->
      advance st;
      loop (Ast.Binop (Ast.Div, acc, parse_concat st))
    | Lexer.PERCENT ->
      advance st;
      loop (Ast.Binop (Ast.Mod, acc, parse_concat st))
    | _ -> acc
  in
  loop (parse_concat st)

and parse_concat st =
  let rec loop acc =
    if peek st = Lexer.CONCAT_OP then begin
      advance st;
      loop (Ast.Binop (Ast.Concat, acc, parse_unary st))
    end
    else acc
  in
  loop (parse_unary st)

and parse_unary st =
  match peek st with
  | Lexer.MINUS ->
    advance st;
    (* Fold the sign into numeric literals so boundary digit strings stay
       literal after a round trip. *)
    (match parse_unary st with
     | Ast.Int_lit s when s <> "" && s.[0] <> '-' -> Ast.Int_lit ("-" ^ s)
     | Ast.Dec_lit s when s <> "" && s.[0] <> '-' -> Ast.Dec_lit ("-" ^ s)
     | e -> Ast.Unop (Ast.Neg, e))
  | Lexer.PLUS ->
    advance st;
    parse_unary st
  | Lexer.TILDE ->
    advance st;
    Ast.Unop (Ast.Bit_not, parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let e = parse_primary st in
  let rec loop acc =
    if peek st = Lexer.DOUBLE_COLON then begin
      advance st;
      loop (Ast.Cast (acc, type_name st))
    end
    else acc
  in
  loop e

and parse_expr_list st =
  let rec go acc =
    let e = parse_expr st in
    if peek st = Lexer.COMMA then begin
      advance st;
      go (e :: acc)
    end
    else List.rev (e :: acc)
  in
  go []

and parse_call_args st =
  (* inside parentheses; may be empty, may start with DISTINCT *)
  let distinct = eat_kw st "DISTINCT" in
  if peek st = Lexer.RPAREN then (distinct, [])
  else (distinct, parse_expr_list st)

and parse_primary st =
  match peek st with
  | Lexer.INT s ->
    advance st;
    Ast.Int_lit s
  | Lexer.DEC s ->
    advance st;
    Ast.Dec_lit s
  | Lexer.STRING s ->
    advance st;
    Ast.Str_lit s
  | Lexer.HEXSTR s ->
    advance st;
    Ast.Hex_lit s
  | Lexer.STAR ->
    advance st;
    Ast.Star
  | Lexer.LPAREN ->
    advance st;
    if is_kw st "SELECT" then begin
      let q = parse_query st in
      expect st Lexer.RPAREN ")";
      Ast.Subquery q
    end
    else begin
      let e = parse_expr st in
      expect st Lexer.RPAREN ")";
      e
    end
  | Lexer.IDENT s ->
    let upper = String.uppercase_ascii s in
    (match upper with
     | "NULL" ->
       advance st;
       Ast.Null
     | "TRUE" ->
       advance st;
       Ast.Bool_lit true
     | "FALSE" ->
       advance st;
       Ast.Bool_lit false
     | "CAST" ->
       advance st;
       expect st Lexer.LPAREN "(";
       let e = parse_expr st in
       expect_kw st "AS";
       let t = type_name st in
       expect st Lexer.RPAREN ")";
       Ast.Cast (e, t)
     | "ROW" when peek2 st = Lexer.LPAREN ->
       advance st;
       advance st;
       let es = if peek st = Lexer.RPAREN then [] else parse_expr_list st in
       expect st Lexer.RPAREN ")";
       Ast.Row es
     | "ARRAY" when peek2 st = Lexer.LBRACKET ->
       advance st;
       advance st;
       let es = if peek st = Lexer.RBRACKET then [] else parse_expr_list st in
       expect st Lexer.RBRACKET "]";
       Ast.Array_lit es
     | "CASE" ->
       advance st;
       let operand = if is_kw st "WHEN" then None else Some (parse_expr st) in
       let rec branches acc =
         if eat_kw st "WHEN" then begin
           let w = parse_expr st in
           expect_kw st "THEN";
           let t = parse_expr st in
           branches ((w, t) :: acc)
         end
         else List.rev acc
       in
       let branches = branches [] in
       if branches = [] then fail st "CASE requires at least one WHEN";
       let else_ = if eat_kw st "ELSE" then Some (parse_expr st) else None in
       expect_kw st "END";
       Ast.Case { operand; branches; else_ }
     | "EXISTS" when peek2 st = Lexer.LPAREN ->
       advance st;
       advance st;
       let q = parse_query st in
       expect st Lexer.RPAREN ")";
       Ast.Exists q
     | "INTERVAL"
       when (match peek2 st with
             | Lexer.INT _ | Lexer.STRING _ -> true
             | _ -> false) ->
       (* INTERVAL 3 DAY — date-arithmetic literal, encoded as a call *)
       advance st;
       let amount =
         match peek st with
         | Lexer.INT v ->
           advance st;
           Ast.Int_lit v
         | Lexer.STRING v ->
           advance st;
           Ast.Str_lit v
         | _ -> fail st "expected interval amount"
       in
       let unit = ident st in
       Ast.call "INTERVAL_LIT" [ amount; Ast.Str_lit (String.uppercase_ascii unit) ]
     | _ when is_reserved s -> fail st (Printf.sprintf "unexpected keyword %s" s)
     | _ ->
       advance st;
       if peek st = Lexer.LPAREN then begin
         advance st;
         let distinct, args = parse_call_args st in
         expect st Lexer.RPAREN ")";
         Ast.Call { fname = upper; args; distinct }
       end
       else if peek st = Lexer.DOT then begin
         advance st;
         let col = ident st in
         Ast.Column (Some s, col)
       end
       else Ast.Column (None, s))
  | tok ->
    fail st (Printf.sprintf "unexpected token %s" (Lexer.token_to_string tok))

(* ----- queries ----- *)

and parse_select st =
  expect_kw st "SELECT";
  let sel_distinct = eat_kw st "DISTINCT" in
  let parse_proj_item () =
    if peek st = Lexer.STAR then begin
      (* plain [*] projection, unless it is a multiplication like [* 2] —
         projections cannot start with an operator, so bare star is safe *)
      advance st;
      Ast.Proj_star
    end
    else begin
      let e = parse_expr st in
      if eat_kw st "AS" then Ast.Proj_expr (e, Some (ident st))
      else
        match peek st with
        | Lexer.IDENT a when not (is_reserved a) ->
          advance st;
          Ast.Proj_expr (e, Some a)
        | _ -> Ast.Proj_expr (e, None)
    end
  in
  let rec proj acc =
    let item = parse_proj_item () in
    if peek st = Lexer.COMMA then begin
      advance st;
      proj (item :: acc)
    end
    else List.rev (item :: acc)
  in
  let projection = proj [] in
  (* words that start a join clause must not be eaten as implicit aliases *)
  let join_kw = [ "JOIN"; "LEFT"; "INNER"; "CROSS"; "OUTER"; "ON" ] in
  let implicit_alias () =
    match peek st with
    | Lexer.IDENT a
      when (not (is_reserved a))
           && not (List.mem (String.uppercase_ascii a) join_kw) ->
      advance st;
      Some a
    | _ -> None
  in
  let parse_from_item () =
    if peek st = Lexer.LPAREN then begin
      advance st;
      let q = parse_query st in
      expect st Lexer.RPAREN ")";
      ignore (eat_kw st "AS");
      Ast.From_subquery (q, ident st)
    end
    else begin
      let t = ident st in
      if eat_kw st "AS" then Ast.From_table (t, Some (ident st))
      else Ast.From_table (t, implicit_alias ())
    end
  in
  let rec parse_joins left =
    let finish_join kind =
      let right = parse_from_item () in
      let on = if eat_kw st "ON" then Some (parse_expr st) else None in
      parse_joins (Ast.From_join { left; right; kind; on })
    in
    if peek st = Lexer.COMMA then begin
      advance st;
      let right = parse_from_item () in
      parse_joins (Ast.From_join { left; right; kind = Ast.Cross; on = None })
    end
    else if is_kw st "JOIN" then begin
      advance st;
      finish_join Ast.Inner
    end
    else if
      is_kw st "INNER"
      && (match peek2 st with
          | Lexer.IDENT j -> String.uppercase_ascii j = "JOIN"
          | _ -> false)
    then begin
      advance st;
      advance st;
      finish_join Ast.Inner
    end
    else if
      is_kw st "LEFT"
      && (match peek2 st with
          | Lexer.IDENT j ->
            let u = String.uppercase_ascii j in
            u = "JOIN" || u = "OUTER"
          | _ -> false)
    then begin
      advance st;
      ignore (eat_kw st "OUTER");
      expect_kw st "JOIN";
      finish_join Ast.Left_outer
    end
    else if
      is_kw st "CROSS"
      && (match peek2 st with
          | Lexer.IDENT j -> String.uppercase_ascii j = "JOIN"
          | _ -> false)
    then begin
      advance st;
      advance st;
      let right = parse_from_item () in
      parse_joins (Ast.From_join { left; right; kind = Ast.Cross; on = None })
    end
    else left
  in
  let from =
    if eat_kw st "FROM" then Some (parse_joins (parse_from_item ()))
    else None
  in
  let where = if eat_kw st "WHERE" then Some (parse_expr st) else None in
  let group_by =
    if is_kw st "GROUP" then begin
      advance st;
      expect_kw st "BY";
      parse_expr_list st
    end
    else []
  in
  let having = if eat_kw st "HAVING" then Some (parse_expr st) else None in
  { Ast.sel_distinct; projection; from; where; group_by; having }

and parse_body st =
  let left = Ast.Body_select (parse_select st) in
  let rec unions acc =
    if is_kw st "UNION" then begin
      advance st;
      let all = eat_kw st "ALL" in
      let right =
        if peek st = Lexer.LPAREN then begin
          advance st;
          let b = parse_body st in
          expect st Lexer.RPAREN ")";
          b
        end
        else Ast.Body_select (parse_select st)
      in
      unions (Ast.Body_union { all; left = acc; right })
    end
    else acc
  in
  unions left

and parse_query st =
  let body = parse_body st in
  let order_by =
    if is_kw st "ORDER" then begin
      advance st;
      expect_kw st "BY";
      let rec items acc =
        let e = parse_expr st in
        let asc =
          if eat_kw st "DESC" then false
          else begin
            ignore (eat_kw st "ASC");
            true
          end
        in
        let acc = { Ast.ord_expr = e; asc } :: acc in
        if peek st = Lexer.COMMA then begin
          advance st;
          items acc
        end
        else List.rev acc
      in
      items []
    end
    else []
  in
  let limit =
    if eat_kw st "LIMIT" then
      match peek st with
      | Lexer.INT s ->
        advance st;
        int_of_string_opt s
      | _ -> fail st "expected integer after LIMIT"
    else None
  in
  { Ast.body; order_by; limit }

(* ----- statements ----- *)

let parse_column_def st =
  let col_name = ident st in
  let col_type = type_name st in
  let not_null = ref false and default = ref None in
  let rec options () =
    if is_kw st "NOT" then begin
      advance st;
      expect_kw st "NULL";
      not_null := true;
      options ()
    end
    else if eat_kw st "NULL" then options ()
    else if eat_kw st "DEFAULT" then begin
      default := Some (parse_expr st);
      options ()
    end
    else if eat_kw st "PRIMARY" then begin
      expect_kw st "KEY";
      options ()
    end
    else if eat_kw st "UNIQUE" then options ()
  in
  options ();
  {
    Ast.col_name;
    col_type;
    col_not_null = !not_null;
    col_default = !default;
  }

let rec parse_statement st =
  if eat_kw st "EXPLAIN" then Ast.Explain (parse_statement st)
  else if is_kw st "SELECT" || peek st = Lexer.LPAREN then
    Ast.Select_stmt (parse_query st)
  else if eat_kw st "CREATE" then begin
    expect_kw st "TABLE";
    let if_not_exists =
      if is_kw st "IF" then begin
        advance st;
        expect_kw st "NOT";
        expect_kw st "EXISTS";
        true
      end
      else false
    in
    let tbl_name = ident st in
    expect st Lexer.LPAREN "(";
    let rec cols acc =
      let c = parse_column_def st in
      if peek st = Lexer.COMMA then begin
        advance st;
        cols (c :: acc)
      end
      else List.rev (c :: acc)
    in
    let columns = cols [] in
    expect st Lexer.RPAREN ")";
    Ast.Create_table { tbl_name; columns; if_not_exists }
  end
  else if eat_kw st "INSERT" then begin
    expect_kw st "INTO";
    let ins_table = ident st in
    let ins_columns =
      if peek st = Lexer.LPAREN then begin
        advance st;
        let rec cols acc =
          let c = ident st in
          if peek st = Lexer.COMMA then begin
            advance st;
            cols (c :: acc)
          end
          else List.rev (c :: acc)
        in
        let cs = cols [] in
        expect st Lexer.RPAREN ")";
        cs
      end
      else []
    in
    expect_kw st "VALUES";
    let parse_row () =
      expect st Lexer.LPAREN "(";
      let es = if peek st = Lexer.RPAREN then [] else parse_expr_list st in
      expect st Lexer.RPAREN ")";
      es
    in
    let rec rows acc =
      let r = parse_row () in
      if peek st = Lexer.COMMA then begin
        advance st;
        rows (r :: acc)
      end
      else List.rev (r :: acc)
    in
    Ast.Insert { ins_table; ins_columns; rows = rows [] }
  end
  else if eat_kw st "DROP" then begin
    expect_kw st "TABLE";
    let if_exists =
      if is_kw st "IF" then begin
        advance st;
        expect_kw st "EXISTS";
        true
      end
      else false
    in
    Ast.Drop_table { drop_name = ident st; if_exists }
  end
  else fail st "expected SELECT, CREATE, INSERT or DROP"

let with_state src f =
  match Lexer.tokenize src with
  | Error { msg; at } -> Error (Printf.sprintf "lex error at %d: %s" at msg)
  | Ok toks ->
    let st = { toks = Array.of_list toks; pos = 0 } in
    (match f st with
     | v -> Ok v
     | exception Parse_error { msg; at } ->
       Error (Printf.sprintf "parse error at %d: %s" at msg))

let parse_stmt src =
  with_state src (fun st ->
      let s = parse_statement st in
      ignore (if peek st = Lexer.SEMI then advance st);
      if peek st <> Lexer.EOF then fail st "trailing input after statement";
      s)

let parse_script src =
  with_state src (fun st ->
      let rec go acc =
        if peek st = Lexer.EOF then List.rev acc
        else if peek st = Lexer.SEMI then begin
          advance st;
          go acc
        end
        else begin
          let s = parse_statement st in
          (match peek st with
           | Lexer.SEMI -> advance st
           | Lexer.EOF -> ()
           | _ -> fail st "expected ; between statements");
          go (s :: acc)
        end
      in
      go [])

let parse_expr_string src =
  with_state src (fun st ->
      let e = parse_expr st in
      if peek st <> Lexer.EOF then fail st "trailing input after expression";
      e)
