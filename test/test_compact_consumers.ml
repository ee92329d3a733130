(* Consumer-level soundness of the compact value representations: no
   consumer may tell a compact value ([Range_arr], [Rope_str]) from its
   eager spelling. The oracle is that spelling built longhand here, an
   [Arr] of [Int]s or a flat [String.concat], never through [Value.view],
   which is code under test. Per dialect, two armed engines hold a
   one-row table [t], one with compact values and one with their eager
   spellings, and run the same statements: every registry function and
   every interpreter consumer ([||], CAST, comparison, arithmetic
   coercion, WHERE/CASE truthiness) with a table value in each operand
   position. Both sides must give the same display or error, the same
   coverage hit counts and the same [Fault.Crash] site, or none. *)

open Sqlfun_value
open Sqlfun_ast
open Sqlfun_engine
module Fault = Sqlfun_fault.Fault
module Coverage = Sqlfun_coverage.Coverage
module Dialect = Sqlfun_dialects.Dialect
module Func_sig = Sqlfun_functions.Func_sig

type part = Rep of string * int | Leaf of string
type shape = Range of int64 * int64 * int (* first, step, length *) | Rope of part list

let shapes =
  let n = Value.Compact.min_array_len and b = Value.Compact.min_str_bytes in
  [
    Range (0L, 1L, n);
    Range (-1L, -1L, n + 44);
    Range (Int64.sub Int64.max_int (Int64.of_int (n - 1)), 1L, n);
    Rope [ Rep ("ab", b / 2) ];
    Rope [ Leaf "x"; Rep ("\xc3\xa9", b / 2); Leaf "yz" ];
    Rope [ Rep ("9", b) ];
    Rope [ Rep ("[", b + 4) ];
    Rope [ Rep (" ", b); Leaf "1" ];
  ]

(* built fresh for every statement: a spill or flatten caches in place,
   so a consumer handed a used value would not see the compact shape *)
let compact = function
  | Range (first, step, len) -> Value.range_arr ~first ~step ~len
  | Rope parts ->
    let piece = function Rep (s, n) -> Value.str_rope_rep s n | Leaf s -> Value.Str s in
    List.fold_left
      (fun acc p -> Option.get (Value.rope_concat acc (piece p)))
      (piece (List.hd parts)) (List.tl parts)

let eager = function
  | Range (first, step, len) ->
    Value.Arr
      (List.init len (fun i ->
           Value.Int (Int64.add first (Int64.mul step (Int64.of_int i)))))
  | Rope parts ->
    let flat = function Rep (s, n) -> List.init n (fun _ -> s) | Leaf s -> [ s ] in
    Value.Str (String.concat "" (List.concat_map flat parts))

let columns = List.mapi (fun i _ -> Ast.Column (None, Printf.sprintf "c%d" i)) shapes
let pool = [ Ast.Int_lit "1"; Ast.Int_lit "-1"; Ast.Str_lit "a" ]

(* an armed engine whose table [t] is refilled from [row] before each
   statement *)
let side prof row =
  let engine = Dialect.make_engine ~armed:true prof in
  let cols = List.mapi (fun i _ -> Printf.sprintf "c%d TEXT" i) shapes in
  ignore (Engine.exec_sql engine ("CREATE TABLE t (" ^ String.concat ", " cols ^ ")"));
  let t = Option.get (Storage.find_table (Engine.catalog engine) "t") in
  (engine, fun () -> t.Storage.rows <- [ row () ])

let outcome (engine, fill) stmt =
  fill ();
  match Engine.exec_stmt engine stmt with
  | Ok o -> Engine.outcome_to_string o
  | Error e -> "error: " ^ Engine.error_to_string e
  | exception Fault.Crash spec -> "crash: " ^ spec.Fault.site
  | exception e -> "exception: " ^ Printexc.to_string e

let cov (engine, _) = (Engine.context engine).Sqlfun_functions.Fn_ctx.cov

let same (c, e) stmt =
  let oc = outcome c stmt and oe = outcome e stmt and sql = Sql_pp.stmt stmt in
  let clip s = if String.length s <= 160 then s else String.sub s 0 160 ^ "..." in
  if oc <> oe then Alcotest.failf "%s\n  compact: %s\n  eager:   %s" sql (clip oc) (clip oe);
  let hits s = (Coverage.total_hits (cov s), Coverage.count (cov s)) in
  if hits c <> hits e then Alcotest.failf "%s: coverage hits differ" sql

let select ?where e =
  let sel = Ast.simple_select [ Ast.Proj_expr (e, None) ] in
  Ast.Select_stmt
    (Ast.query_of_select { sel with Ast.from = Some (Ast.From_table ("t", None)); where })

(* a consumer of [arity] operands: the operands a table value meets in
   its other positions, and the statement they form *)
type consumer =
  { name : string; arity : int; others : Ast.expr list; stmt : Ast.expr list -> Ast.stmt }

let functions prof =
  List.concat_map
    (fun (spec : Func_sig.t) ->
      let name = spec.Func_sig.name and lo = max 1 spec.Func_sig.min_args in
      let hi = min (lo + 1) (Option.value spec.Func_sig.max_args ~default:(lo + 1)) in
      List.init (max 0 (hi - lo + 1)) (fun k ->
          { name; arity = lo + k; others = pool; stmt = (fun a -> select (Ast.call name a)) }))
    (Sqlfun_functions.Registry.specs (Dialect.registry prof))

let interpreter =
  let one = Ast.Int_lit "1" in
  let case operand w = Ast.Case { operand; branches = [ (w, one) ]; else_ = Some Ast.Null } in
  let un name f = { name; arity = 1; others = []; stmt = (fun a -> f (List.hd a)) } in
  let bin ?(others = pool @ columns) name f =
    { name; arity = 2; others; stmt = (fun a -> select (f (List.hd a) (List.nth a 1))) }
  in
  let op ?others o =
    bin ?others (Sql_pp.expr (Ast.Binop (o, one, one))) (fun a b -> Ast.Binop (o, a, b))
  in
  List.map
    (fun ty -> un ("CAST AS " ^ Sql_pp.type_name ty) (fun a -> select (Ast.Cast (a, ty))))
    Ast.
      [
        T_bool; T_smallint; T_int; T_bigint; T_unsigned; T_decimal None;
        T_decimal (Some (10, 2)); T_float; T_double; T_char (Some 5); T_varchar (Some 10);
        T_text; T_blob; T_date; T_time; T_datetime; T_interval_t; T_json; T_array_t T_int;
        T_array_t T_text; T_inet; T_uuid; T_geometry; T_xml;
      ]
  @ List.map op
      Ast.[ Concat; Eq; Neq; Lt; Le; Gt; Ge; Like; And; Or; Add; Sub; Div; Mod; Bit_and; Shift_l ]
  (* multiplication meets the pool only: between two table values, two
     4096-digit operands cost ~0.25 s of schoolbook multiplication on
     each side *)
  @ [ op ~others:pool Ast.Mul ]
  @ [
      un "-" (fun a -> select (Ast.Unop (Neg, a)));
      un "NOT" (fun a -> select (Ast.Unop (Not, a)));
      un "~" (fun a -> select (Ast.Unop (Bit_not, a)));
      un "CASE WHEN" (fun a -> select (case None a));
      un "WHERE" (fun a -> select ~where:a one);
      bin "BETWEEN" (fun a b -> Ast.Between (a, b, b));
      bin "IN" (fun a b -> Ast.In_list (a, [ b ]));
      bin "CASE" (fun a b -> case (Some a) b);
    ]

(* every consumer, with each compact value in each operand position *)
let test_consumers () =
  let triples = Hashtbl.create 4096 and calls = ref 0 in
  List.iter
    (fun prof ->
      let eager_row = Fun.const (List.map eager shapes) in
      let s = (side prof (fun () -> List.map compact shapes), side prof eager_row) in
      List.iter
        (fun (kind, k) ->
          for pos = 0 to k.arity - 1 do
            Hashtbl.replace triples (kind, prof.Dialect.id, k.name, pos) ();
            List.iter
              (fun col ->
                List.iter
                  (fun other ->
                    incr calls;
                    same s (k.stmt (List.init k.arity (fun j -> if j = pos then col else other))))
                  (if k.arity = 1 then [ Ast.Null ] else k.others))
              columns
          done;
          (* the full hit-counted point lists *)
          if Coverage.points (cov (fst s)) <> Coverage.points (cov (snd s)) then
            Alcotest.failf "%s %s: coverage points differ" prof.Dialect.id k.name)
        (List.map (fun k -> (`Fn, k)) (functions prof) @ List.map (fun k -> (`Op, k)) interpreter))
    Dialect.all;
  let n kind = Hashtbl.fold (fun (k, _, _, _) () n -> if k = kind then n + 1 else n) triples 0 in
  Printf.printf "%d statements; (dialect, consumer, position) triples: %d function, %d interpreter\n"
    !calls (n `Fn) (n `Op);
  Alcotest.(check bool) "every dialect's functions were called" true (n `Fn > 1000)

(* The producers' representation decision, the only one left: one below
   its threshold the result is boxed and nothing compact is built, at
   the threshold it is compact and records one hit, however many rope
   nodes it took (LPAD/RPAD: filler, then concatenation; CONCAT: one
   node per further part). The display equals the eager oracle either
   way. *)
let test_thresholds () =
  let engine = Engine.create ~registry:(Sqlfun_functions.All_fns.registry ()) ~dialect:"t" () in
  let b = Value.Compact.min_str_bytes and h = Value.Compact.min_str_bytes / 2 in
  let lit c k = "'" ^ String.make k c ^ "'" and sql = Printf.sprintf in
  let ab k = Rope [ Rep ("a", h); Rep ("b", k - h) ] and q = h / 2 in
  List.iter
    (fun (name, threshold, hits, make) ->
      List.iter
        (fun k ->
          let text, shape = make k in
          let name = sql "%s at %d" name k and c0 = Value.Compact.read () in
          let v = Result.get_ok (Engine.eval_expr_sql engine text) in
          let built = (Value.Compact.since c0).Value.Compact.hits in
          let is_compact = match v with Value.Range_arr _ | Value.Rope_str _ -> true | _ -> false in
          let want = if k = threshold then (true, hits) else (false, 0) in
          Alcotest.(check (pair bool int)) (name ^ ": compact, hits") want (is_compact, built);
          Alcotest.(check string)
            (name ^ ": display") (Value.to_display (eager shape)) (Value.to_display v))
        [ threshold - 1; threshold ])
    [
      ("RANGE", Value.Compact.min_array_len, 1, fun k -> (sql "RANGE(%d)" k, Range (0L, 1L, k)));
      ("REPEAT", b, 1, fun k -> (sql "REPEAT('a', %d)" k, Rope [ Rep ("a", k) ]));
      ("SPACE", b, 1, fun k -> (sql "SPACE(%d)" k, Rope [ Rep (" ", k) ]));
      ("LPAD", b, 1, fun k -> (sql "LPAD('x', %d, 'a')" k, Rope [ Rep ("a", k - 1); Leaf "x" ]));
      ("RPAD", b, 1, fun k -> (sql "RPAD('x', %d, 'a')" k, Rope [ Leaf "x"; Rep ("a", k - 1) ]));
      ("||", b, 1, fun k -> (lit 'a' h ^ " || " ^ lit 'b' (k - h), ab k));
      ("CONCAT", b, 1, fun k -> (sql "CONCAT(%s, %s)" (lit 'a' h) (lit 'b' (k - h)), ab k));
      ( "3-part CONCAT", b, 1,
        fun k ->
          ( sql "CONCAT(%s, %s, %s)" (lit 'a' q) (lit 'b' (h - q)) (lit 'c' (k - h)),
            Rope [ Rep ("a", q); Rep ("b", h - q); Rep ("c", k - h) ] ) );
    ]

let suite =
  ( "compact consumers",
    [
      Alcotest.test_case "producer thresholds" `Quick test_thresholds;
      Alcotest.test_case "every consumer: compact operand = eager" `Quick test_consumers;
    ] )
