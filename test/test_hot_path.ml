(* Equivalence tests for the hot-path rewrites: each replaced routine's
   previous implementation is kept here, verbatim in behaviour, as the
   oracle the new one must match byte for byte. *)

open Sqlfun_num
open Sqlfun_data
open Sqlfun_value
open Sqlfun_ast
open Sqlfun_engine
module Fault = Sqlfun_fault.Fault
module Coverage = Sqlfun_coverage.Coverage
module Dialect = Sqlfun_dialects.Dialect

(* ----- digit writers ----- *)

let with_buf f =
  let buf = Buffer.create 16 in
  f buf;
  Buffer.contents buf

let edge_ints =
  [ 0; 1; -1; 9; 10; -10; 99; 100; 12345; -12345; max_int; min_int;
    max_int - 1; min_int + 1 ]

let test_digits () =
  List.iter
    (fun n ->
      Alcotest.(check string) "add_int" (string_of_int n)
        (with_buf (fun b -> Digits.add_int b n));
      List.iter
        (fun w ->
          Alcotest.(check string)
            (Printf.sprintf "add_padded %d %d" w n)
            (Printf.sprintf "%0*d" w n)
            (with_buf (fun b -> Digits.add_padded b w n)))
        [ 0; 1; 2; 3; 4; 25 ])
    edge_ints;
  List.iter
    (fun i ->
      Alcotest.(check string) "add_int64" (Int64.to_string i)
        (Digits.int64_to_string i))
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; Int64.succ Int64.min_int;
      4611686018427387903L; 4611686018427387904L; -4611686018427387904L;
      -4611686018427387905L ]

let prop_digits =
  QCheck.Test.make ~name:"digit writers equal the format interpreter"
    ~count:500
    QCheck.(pair int64 (int_range 0 8))
    (fun (i, w) ->
      let n = Int64.to_int i in
      Digits.int64_to_string i = Int64.to_string i
      && with_buf (fun b -> Digits.add_int b n) = string_of_int n
      && with_buf (fun b -> Digits.add_padded b w n) = Printf.sprintf "%0*d" w n)

(* ----- cast coverage keys ----- *)

let all_tys =
  Value.
    [ Ty_null; Ty_bool; Ty_int; Ty_dec; Ty_float; Ty_str; Ty_blob; Ty_date;
      Ty_time; Ty_datetime; Ty_interval; Ty_json; Ty_array; Ty_map; Ty_row;
      Ty_inet; Ty_uuid; Ty_geometry; Ty_xml ]

let plain_targets =
  Ast.
    [ T_bool; T_smallint; T_int; T_bigint; T_unsigned; T_decimal None;
      T_float; T_double; T_char None; T_varchar None; T_text; T_blob; T_date;
      T_time; T_datetime; T_interval_t; T_json; T_inet; T_uuid; T_geometry;
      T_xml; T_row_t ]

let parametric_targets =
  Ast.
    [ T_decimal (Some (10, 2)); T_char (Some 3); T_varchar (Some 255);
      T_array_t T_bigint; T_array_t (T_array_t T_text); T_map_t (T_text, T_int);
      T_named ("DECIMAL256", [ 45 ]); T_named ("LONGTEXT", []) ]

let old_point ty target ok =
  Printf.sprintf "cast/%s->%s/%s" (Value.ty_name ty) (Sql_pp.type_name target)
    (if ok then "ok" else "err")

let test_cast_keys () =
  List.iter
    (fun ty ->
      List.iter
        (fun target ->
          List.iter
            (fun ok ->
              let expected = old_point ty target ok in
              Alcotest.(check string) expected expected
                (Cast.coverage_point ty target ok))
            [ true; false ])
        (plain_targets @ parametric_targets))
    all_tys;
  (* and [cast] records exactly that point *)
  let cfg = { Cast.strictness = Cast.Strict; json_max_depth = Some 64 } in
  let cov = Coverage.create () in
  ignore (Cast.cast ~cov cfg (Value.Str "12") Ast.T_int);
  ignore (Cast.cast ~cov cfg (Value.Str "x") Ast.T_date);
  ignore (Cast.cast ~cov cfg (Value.Int 7L) (Ast.T_decimal (Some (3, 1))));
  Alcotest.(check (list (pair string int)))
    "recorded points"
    [ ("cast/BIGINT->DECIMAL(3,1)/ok", 1); ("cast/TEXT->DATE/err", 1);
      ("cast/TEXT->INT/ok", 1) ]
    (Coverage.points cov)

(* a range reaches every cast target unspilled unless the target reads
   its elements, and every target answers exactly as for the boxed
   array *)
let test_range_casts () =
  let n = Value.Compact.min_array_len in
  let r () = Value.range_arr ~first:(-3L) ~step:1L ~len:n in
  let boxed = Value.Arr (List.init n (fun k -> Value.Int (Int64.of_int (k - 3)))) in
  List.iter
    (fun strictness ->
      let cfg = { Cast.strictness; json_max_depth = Some 64 } in
      List.iter
        (fun target ->
          let name = Sql_pp.type_name target in
          let c0 = Value.Compact.read () in
          let got = Cast.cast cfg (r ()) target in
          let spills = (Value.Compact.since c0).Value.Compact.spills in
          let reads_elements =
            match target with Ast.T_array_t _ | Ast.T_json -> true | _ -> false
          in
          if not reads_elements then Alcotest.(check int) (name ^ " spills") 0 spills;
          let show = function
            | Ok v -> "ok " ^ Value.to_display v
            | Error e -> "error " ^ Cast.error_to_string e
          in
          Alcotest.(check string) name (show (Cast.cast cfg boxed target)) (show got))
        (plain_targets @ parametric_targets))
    [ Cast.Strict; Cast.Lenient ]

(* ----- value rendering ----- *)

let old_blob_display b =
  let buf = Buffer.create (2 + (2 * String.length b)) in
  Buffer.add_string buf "0x";
  String.iter
    (fun c -> Buffer.add_string buf (Printf.sprintf "%02X" (Char.code c)))
    b;
  Buffer.contents buf

let range_elements (r : Value.range_arr) =
  List.init r.Value.rg_len (fun k ->
      Value.Int
        (Int64.add r.Value.rg_first
           (Int64.mul r.Value.rg_step (Int64.of_int k))))

let rec old_display v =
  match v with
  | Value.Int i -> Int64.to_string i
  | Value.Blob b -> old_blob_display b
  | Value.Interval { Calendar.amount; unit_ } ->
    Printf.sprintf "INTERVAL %Ld %s" amount (Calendar.unit_to_string unit_)
  | Value.Arr vs -> "[" ^ String.concat ", " (List.map old_display vs) ^ "]"
  | Value.Range_arr r -> old_display (Value.Arr (range_elements r))
  | Value.Map kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> old_display k ^ ": " ^ old_display v) kvs)
    ^ "}"
  | Value.Row vs -> "(" ^ String.concat ", " (List.map old_display vs) ^ ")"
  | Value.Null | Value.Bool _ | Value.Dec _ | Value.Float _ | Value.Str _
  | Value.Date _ | Value.Time _ | Value.Datetime _ | Value.Json _
  | Value.Inet _ | Value.Uuid _ | Value.Geom _ | Value.Xml _
  | Value.Rope_str _ ->
    Value.to_display v

let range ~first ~step ~len =
  Value.Range_arr
    { Value.rg_first = first; rg_step = step; rg_len = len; rg_spill = None }

let gen_int64 =
  QCheck.Gen.(
    oneof
      [ oneofl
          [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 4611686018427387904L;
            -4611686018427387905L ];
        map Int64.of_int small_signed_int; ui64; map Int64.neg ui64 ])

let gen_range =
  let open QCheck.Gen in
  let n = Value.Compact.min_array_len in
  map3
    (fun first step len -> range ~first ~step ~len)
    (oneof
       [ gen_int64;
         (* straddle the native-int boundary and the int64 ends *)
         oneofl
           [ 4611686018427387900L; -4611686018427387900L; Int64.max_int;
             Int64.min_int ] ])
    (oneofl [ 1L; -1L ])
    (oneof [ oneofl [ 1; n - 1; n; n + 1 ]; int_range 1 (3 * n) ])

let gen_value =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun i -> Value.Int i) gen_int64;
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun s -> Value.Str s) (string_size ~gen:printable (int_bound 6));
        map (fun s -> Value.Blob s) (string_size (int_bound 6));
        map
          (fun i -> Value.Interval { Calendar.amount = i; unit_ = Calendar.Hour })
          gen_int64;
        map (fun f -> Value.Float f) (float_range (-1e3) 1e3) ]
  in
  sized_size (int_bound 3)
  @@ fix (fun self depth ->
         if depth = 0 then leaf
         else
           let sub = self (depth - 1) in
           frequency
             [ (3, leaf);
               (2, map (fun vs -> Value.Arr vs) (list_size (int_bound 4) sub));
               (2, map (fun vs -> Value.Row vs) (list_size (int_bound 4) sub));
               ( 2,
                 map
                   (fun kvs -> Value.Map kvs)
                   (list_size (int_bound 3) (pair sub sub)) );
               (1, gen_range) ])

let prop_display =
  QCheck.Test.make ~name:"to_display equals the String.concat renderer"
    ~count:400
    (QCheck.make ~print:old_display gen_value)
    (fun v -> Value.to_display v = old_display v)

let test_display_edges () =
  let n = Value.Compact.min_array_len in
  let cases =
    [ Value.Int Int64.min_int; Value.Int 0L; Value.Int (-42L);
      range ~first:5L ~step:(-1L) ~len:(n - 1);
      range ~first:5L ~step:(-1L) ~len:(n + 1);
      range ~first:Int64.min_int ~step:1L ~len:n;
      range ~first:Int64.max_int ~step:(-1L) ~len:3;
      range ~first:4611686018427387900L ~step:1L ~len:(n + 1);
      Value.Row
        [ Value.Map [ (Value.Str "k", range ~first:0L ~step:1L ~len:n) ];
          Value.Arr [ Value.Row []; Value.Map [] ] ] ]
  in
  let c0 = Value.Compact.read () in
  List.iter
    (fun v ->
      Alcotest.(check string) "edge" (old_display v) (Value.to_display v))
    cases;
  Alcotest.(check int) "rendering spilled nothing" 0
    (Value.Compact.since c0).Value.Compact.spills

let test_blob_display () =
  let all = String.init 256 Char.chr in
  Alcotest.(check string) "all 256 bytes" (old_blob_display all)
    (Value.to_display (Value.Blob all));
  for c = 0 to 255 do
    let b = String.make 1 (Char.chr c) in
    Alcotest.(check string) "byte" (old_blob_display b)
      (Value.to_display (Value.Blob b))
  done;
  Alcotest.(check string) "empty" "0x" (Value.to_display (Value.Blob ""))

(* ----- DATE_FORMAT ----- *)

let month_names =
  [| "January"; "February"; "March"; "April"; "May"; "June"; "July";
     "August"; "September"; "October"; "November"; "December" |]

let day_names =
  [| "Sunday"; "Monday"; "Tuesday"; "Wednesday"; "Thursday"; "Friday";
     "Saturday" |]

let old_date_format (dt : Calendar.datetime) fmt =
  let d = dt.Calendar.date and t = dt.Calendar.time in
  let buf = Buffer.create (String.length fmt + 8) in
  let n = String.length fmt in
  let rec go i =
    if i >= n then ()
    else if fmt.[i] = '%' && i + 1 < n then begin
      (match fmt.[i + 1] with
       | 'Y' -> Buffer.add_string buf (Printf.sprintf "%04d" d.Calendar.year)
       | 'y' ->
         Buffer.add_string buf (Printf.sprintf "%02d" (d.Calendar.year mod 100))
       | 'm' -> Buffer.add_string buf (Printf.sprintf "%02d" d.Calendar.month)
       | 'c' -> Buffer.add_string buf (string_of_int d.Calendar.month)
       | 'd' -> Buffer.add_string buf (Printf.sprintf "%02d" d.Calendar.day)
       | 'e' -> Buffer.add_string buf (string_of_int d.Calendar.day)
       | 'H' -> Buffer.add_string buf (Printf.sprintf "%02d" t.Calendar.hour)
       | 'i' -> Buffer.add_string buf (Printf.sprintf "%02d" t.Calendar.minute)
       | 's' | 'S' ->
         Buffer.add_string buf (Printf.sprintf "%02d" t.Calendar.second)
       | 'M' -> Buffer.add_string buf month_names.(d.Calendar.month - 1)
       | 'W' -> Buffer.add_string buf day_names.(Calendar.day_of_week d)
       | 'j' ->
         Buffer.add_string buf (Printf.sprintf "%03d" (Calendar.day_of_year d))
       | '%' -> Buffer.add_char buf '%'
       | c -> Buffer.add_char buf c);
      go (i + 2)
    end
    else begin
      Buffer.add_char buf fmt.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let one_value e sql =
  match Engine.exec_sql e sql with
  | Ok (Engine.Rows { Interp.rows = [ [ v ] ]; _ }) -> v
  | Ok _ -> Alcotest.failf "expected one value for %S" sql
  | Error err -> Alcotest.failf "%S failed: %s" sql (Engine.error_to_string err)

let test_date_format () =
  let e = Dialect.make_engine (Dialect.find_exn "mysql") in
  let fmt = "%Y|%y|%m|%c|%d|%e|%H|%i|%s|%S|%M|%W|%j|%%|%q|x%" in
  List.iter
    (fun lit ->
      let dt =
        match Calendar.datetime_of_string lit with
        | Some dt -> dt
        | None -> Alcotest.failf "bad fixture %s" lit
      in
      let sql = Printf.sprintf "SELECT DATE_FORMAT('%s', '%s')" lit fmt in
      Alcotest.(check string) sql (old_date_format dt fmt)
        (Value.to_display (one_value e sql)))
    [ "0001-01-01 00:00:00"; "9999-12-31 23:59:59"; "2024-02-29 07:08:09" ]

(* ----- date and time parsing ----- *)

let old_split_on_any seps s =
  let parts = ref [] and buf = Buffer.create 8 in
  String.iter
    (fun c ->
      if List.mem c seps then begin
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf
      end
      else Buffer.add_char buf c)
    s;
  parts := Buffer.contents buf :: !parts;
  List.rev !parts

let old_date_of_string s =
  match old_split_on_any [ '-'; '/' ] (String.trim s) with
  | [ y; m; d ] ->
    (match (int_of_string_opt y, int_of_string_opt m, int_of_string_opt d) with
     | Some year, Some month, Some day -> Calendar.make_date ~year ~month ~day
     | _ -> None)
  | _ -> None

let old_time_of_string s =
  match old_split_on_any [ ':' ] (String.trim s) with
  | [ h; m; sec ] ->
    (match (int_of_string_opt h, int_of_string_opt m, int_of_string_opt sec) with
     | Some hour, Some minute, Some second -> Calendar.make_time ~hour ~minute ~second
     | _ -> None)
  | [ h; m ] ->
    (match (int_of_string_opt h, int_of_string_opt m) with
     | Some hour, Some minute -> Calendar.make_time ~hour ~minute ~second:0
     | _ -> None)
  | _ -> None

let gen_date_like =
  let open QCheck.Gen in
  let piece =
    oneof
      [ map string_of_int (int_range 0 40);
        map string_of_int (int_range 1990 2030);
        oneofl [ "-"; "/"; ":"; " "; ""; "x"; "0x1F"; "+3"; "-"; "//"; "::" ] ]
  in
  map (String.concat "") (list_size (int_range 0 8) piece)

let prop_date_parse =
  QCheck.Test.make ~name:"date/time parsing equals the list-probe splitter"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_date_like)
    (fun s ->
      Calendar.date_of_string s = old_date_of_string s
      && Calendar.time_of_string s = old_time_of_string s)

let test_date_parse_edges () =
  List.iter
    (fun s ->
      Alcotest.(check bool) s true
        (Calendar.date_of_string s = old_date_of_string s
         && Calendar.time_of_string s = old_time_of_string s))
    [ ""; "-"; "/"; ":"; "2024-02-29"; "-2024-02-29"; "2024-02-29-";
      "/2024/02/29"; "2024/02/29/"; " 2024-02-29 "; "12:34"; ":12:34";
      "12:34:"; "12:34:56"; "1:2:3:4"; "2024-02/29"; "--"; "::" ]

(* ----- Str_contains ----- *)

let old_contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 then true
  else begin
    let rec go i =
      if i + nn > nh then false
      else if String.sub hay i nn = needle then true
      else go (i + 1)
    in
    go 0
  end

let test_contains () =
  let hay = "abcREPEATxyz" in
  List.iter
    (fun (needle, expected) ->
      Alcotest.(check bool) needle expected (Fault.contains_substring hay needle))
    [ ("abc", true); ("REPEAT", true); ("xyz", true); ("abcREPEATxyz", true);
      ("zz", false); ("abcREPEATxyzz", false); ("", true) ];
  Alcotest.(check bool) "empty in empty" true (Fault.contains_substring "" "");
  Alcotest.(check bool) "needle in empty" false (Fault.contains_substring "" "a")

let prop_contains =
  QCheck.Test.make ~name:"contains_substring equals the String.sub search"
    ~count:1000
    QCheck.(
      pair
        (string_gen_of_size Gen.(int_bound 12) Gen.(oneofl [ 'a'; 'b' ]))
        (string_gen_of_size Gen.(int_bound 3) Gen.(oneofl [ 'a'; 'b' ])))
    (fun (hay, needle) ->
      Fault.contains_substring hay needle = old_contains hay needle)

(* ----- the boundary-argument tail ----- *)

let test_tail_cases () =
  let e = Dialect.make_engine (Dialect.find_exn "clickhouse") in
  let run sql =
    match Engine.exec_sql e sql with
    | Ok _ -> ()
    | Error err -> Alcotest.failf "%S failed: %s" sql (Engine.error_to_string err)
  in
  run "CREATE TABLE t (v TEXT)";
  let c0 = Value.Compact.read () in
  run "INSERT INTO t VALUES (RANGE(99999))";
  let stored = one_value e "SELECT v FROM t" in
  Alcotest.(check int) "insert spills nothing" 0
    (Value.Compact.since c0).Value.Compact.spills;
  Alcotest.(check string) "stored text"
    ("[" ^ String.concat ", " (List.init 99999 string_of_int) ^ "]")
    (Value.to_display stored);
  List.iter
    (fun sql ->
      let c0 = Value.Compact.read () in
      (match Engine.exec_sql e sql with
       | Error err ->
         Alcotest.(check string) sql "ERROR: cannot coerce ARRAY to an integer"
           (Engine.error_to_string err)
       | Ok _ -> Alcotest.failf "%S succeeded" sql);
      Alcotest.(check int) (sql ^ " spills nothing") 0
        (Value.Compact.since c0).Value.Compact.spills)
    [ "SELECT FROM_DAYS(RANGE(738000))"; "SELECT PERIOD_ADD(RANGE(202305), 3)" ]

let suite =
  ( "hot-path",
    [
      Alcotest.test_case "digit writers" `Quick test_digits;
      QCheck_alcotest.to_alcotest prop_digits;
      Alcotest.test_case "cast keys (exhaustive)" `Quick test_cast_keys;
      Alcotest.test_case "range casts unspilled" `Quick test_range_casts;
      QCheck_alcotest.to_alcotest prop_display;
      Alcotest.test_case "to_display edges" `Quick test_display_edges;
      Alcotest.test_case "blob_display all bytes" `Quick test_blob_display;
      Alcotest.test_case "DATE_FORMAT specifiers" `Quick test_date_format;
      QCheck_alcotest.to_alcotest prop_date_parse;
      Alcotest.test_case "date/time parse edges" `Quick test_date_parse_edges;
      Alcotest.test_case "contains_substring" `Quick test_contains;
      QCheck_alcotest.to_alcotest prop_contains;
      Alcotest.test_case "tail: range insert, FROM_DAYS" `Quick test_tail_cases;
    ] )
