open Sqlfun_dialects
open Sqlfun_fault
open Sqlfun_engine

let test_ledger_totals () =
  Alcotest.(check int) "132 bugs total" 132 (List.length Bug_ledger.all);
  List.iter
    (fun (d, n) ->
      Alcotest.(check int) (d ^ " bug count") n
        (List.length (Bug_ledger.for_dialect d)))
    Bug_ledger.expected_counts

let test_ledger_kind_totals () =
  List.iter
    (fun (kind, expected) ->
      let n =
        List.length (List.filter (fun s -> s.Fault.kind = kind) Bug_ledger.all)
      in
      Alcotest.(check int) (Bug_kind.to_string kind ^ " count") expected n)
    Bug_ledger.expected_kind_counts

let test_ledger_family_totals () =
  List.iter
    (fun (family, expected) ->
      let n =
        List.length
          (List.filter
             (fun s -> Pattern_id.family s.Fault.pattern = family)
             Bug_ledger.all)
      in
      Alcotest.(check int) (Pattern_id.family_to_string family) expected n)
    Bug_ledger.expected_family_counts

let test_ledger_status_totals () =
  let fixed =
    List.length (List.filter (fun s -> s.Fault.status = Fault.Fixed) Bug_ledger.all)
  in
  Alcotest.(check int) "97 fixed" Bug_ledger.expected_fixed fixed

let test_ledger_sites_unique () =
  let sites = List.map (fun s -> s.Fault.site) Bug_ledger.all in
  let sorted = List.sort_uniq String.compare sites in
  Alcotest.(check int) "unique sites" (List.length sites) (List.length sorted)

let test_ledger_functions_in_inventory () =
  List.iter
    (fun spec ->
      let inv = Inventory.for_dialect spec.Fault.dialect in
      Alcotest.(check bool)
        (Printf.sprintf "%s has %s" spec.Fault.dialect spec.Fault.func)
        true
        (List.mem spec.Fault.func inv))
    Bug_ledger.all

let test_ledger_categories_match_library () =
  let full = Sqlfun_functions.All_fns.registry () in
  List.iter
    (fun spec ->
      match Sqlfun_functions.Registry.find full spec.Fault.func with
      | Some fn ->
        Alcotest.(check string)
          (spec.Fault.site ^ " category")
          fn.Sqlfun_functions.Func_sig.category spec.Fault.category
      | None -> Alcotest.failf "%s: unknown function %s" spec.Fault.site spec.Fault.func)
    Bug_ledger.all

let test_inventory_shape () =
  let size d = List.length (Inventory.for_dialect d) in
  let ck = size "clickhouse"
  and pg = size "postgresql"
  and my = size "mysql"
  and ma = size "mariadb"
  and mo = size "monetdb" in
  Alcotest.(check bool)
    (Printf.sprintf "clickhouse(%d) > postgresql(%d)" ck pg)
    true (ck > pg);
  Alcotest.(check bool) (Printf.sprintf "postgresql(%d) > mysql(%d)" pg my) true (pg > my);
  Alcotest.(check bool) (Printf.sprintf "mysql(%d) > mariadb(%d)" my ma) true (my > ma);
  Alcotest.(check bool) (Printf.sprintf "mariadb(%d) > monetdb(%d)" ma mo) true (ma > mo)

let test_profiles () =
  Alcotest.(check int) "7 dialects" 7 (List.length Dialect.all);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p.Dialect.id ^ " has functions")
        true
        (List.length p.Dialect.functions > 30);
      Alcotest.(check bool)
        (p.Dialect.id ^ " has seeds")
        true
        (List.length p.Dialect.seeds > 10))
    Dialect.all

let test_seeds_clean_on_unfaulted_engines () =
  (* Regression suites pass on a healthy server: no seed statement may
     crash an unfaulted engine, and most must succeed outright. *)
  List.iter
    (fun p ->
      let e = Dialect.make_engine p in
      let ok = ref 0 and err = ref 0 in
      List.iter
        (fun sql ->
          match Engine.exec_sql e sql with
          | Ok _ -> incr ok
          | Error _ -> incr err)
        p.Dialect.seeds;
      Alcotest.(check int) (p.Dialect.id ^ " seed errors") 0 !err)
    Dialect.all

let test_seeds_clean_on_armed_engines () =
  (* The seeds must not trigger any injected bug by themselves: SOFT's
     patterns, not the regression suite, expose them. *)
  List.iter
    (fun p ->
      let e = Dialect.make_engine ~armed:true p in
      List.iter
        (fun sql ->
          match Engine.exec_sql e sql with
          | Ok _ | Error _ -> ()
          | exception Fault.Crash spec ->
            Alcotest.failf "seed %S trips %s" sql spec.Fault.site)
        p.Dialect.seeds)
    Dialect.all

let expect_crash engine sql expected_site =
  match Engine.exec_sql engine sql with
  | Ok _ -> Alcotest.failf "%S did not crash" sql
  | Error e -> Alcotest.failf "%S errored cleanly: %s" sql (Engine.error_to_string e)
  | exception Fault.Crash spec ->
    Alcotest.(check string) sql expected_site spec.Fault.site

let test_paper_pocs_crash_armed_engines () =
  (* The paper's own PoCs reproduce against the armed simulated dialects. *)
  let ch = Dialect.make_engine ~armed:true (Dialect.find_exn "clickhouse") in
  expect_crash ch "SELECT TODECIMALSTRING(CAST('110' AS DECIMAL256(45)), *)"
    "clickhouse/todecimalstring/star-precision";
  let ma = Dialect.make_engine ~armed:true (Dialect.find_exn "mariadb") in
  expect_crash ma "SELECT FORMAT('0', 50, 'de_DE')" "mariadb/format/digits-31";
  expect_crash ma "SELECT JSON_LENGTH(REPEAT('[1,', 100), '$[2][1]')"
    "mariadb/json_length/repeat-array";
  expect_crash ma "SELECT ST_ASTEXT(INET6_ATON('255.255.255.255'))"
    "mariadb/st_astext/inet-wkb";
  let my = Dialect.make_engine ~armed:true (Dialect.find_exn "mysql") in
  expect_crash my
    ("SELECT AVG(1."
    ^ String.make 50 '9'
    ^ ")")
    "mysql/avg/decimal-digits";
  let vi = Dialect.make_engine ~armed:true (Dialect.find_exn "virtuoso") in
  expect_crash vi "SELECT CONTAINS('x', 'x', *)" "virtuoso/contains/star-option"

let test_pocs_error_cleanly_when_disarmed () =
  (* The same PoCs on unfaulted engines: clean errors or results, never a
     crash — the fixed-version behaviour. *)
  let pocs =
    [
      ("clickhouse", "SELECT TODECIMALSTRING(CAST('110' AS DECIMAL256(45)), *)");
      ("mariadb", "SELECT FORMAT('0', 50, 'de_DE')");
      ("mariadb", "SELECT JSON_LENGTH(REPEAT('[1,', 100), '$[2][1]')");
      ("mariadb", "SELECT ST_ASTEXT(INET6_ATON('255.255.255.255'))");
      ("virtuoso", "SELECT CONTAINS('x', 'x', *)");
    ]
  in
  List.iter
    (fun (d, sql) ->
      let e = Dialect.make_engine (Dialect.find_exn d) in
      match Engine.exec_sql e sql with
      | Ok _ | Error _ -> ()
      | exception Fault.Crash spec ->
        Alcotest.failf "disarmed engine crashed at %s" spec.Fault.site)
    pocs

let test_json_depth_crash_mariadb () =
  (* MariaDB runs without the JSON recursion budget: casting a deep
     bracket string blows the simulated stack (CVE-2015-5289 class). *)
  let ma = Dialect.make_engine ~armed:true (Dialect.find_exn "mariadb") in
  match Engine.exec_sql ma ("SELECT CAST('" ^ String.make 2000 '[' ^ "' AS JSON)") with
  | exception Stack_overflow -> ()
  | Ok _ -> Alcotest.fail "deep cast should not succeed"
  | Error _ -> Alcotest.fail "deep cast should crash, not error, on mariadb"

let test_trigger_eval_unit () =
  (* direct unit coverage of representative trigger conditions *)
  let arg ?(prov = Fault.Prov.Literal) v = { Fault.value = v; prov } in
  let open Sqlfun_value in
  Alcotest.(check bool) "star" true
    (Fault.eval_cond (Any_arg Is_star)
       [ { Fault.value = Value.Null; prov = Fault.Prov.Star } ]);
  Alcotest.(check bool) "null literal" true
    (Fault.eval_cond (Arg_at (0, All_of [ Is_null; From_literal ]))
       [ arg Value.Null ]);
  Alcotest.(check bool) "null from cast is not a null literal" false
    (Fault.eval_cond (Arg_at (0, All_of [ Is_null; From_literal ]))
       [ arg ~prov:Fault.Prov.Cast Value.Null ]);
  Alcotest.(check bool) "char run" true
    (Fault.eval_cond (Arg_at (0, Has_char_run 6)) [ arg (Value.Str "ab{{{{{{x") ]);
  Alcotest.(check bool) "char run too short" false
    (Fault.eval_cond (Arg_at (0, Has_char_run 6)) [ arg (Value.Str "{{{x{{{") ]);
  Alcotest.(check bool) "precision" true
    (Fault.eval_cond
       (Arg_at (0, Precision_ge 20))
       [ arg (Value.Dec (Sqlfun_num.Decimal.of_string_exn (String.make 25 '9'))) ]);
  Alcotest.(check bool) "nested named" true
    (Fault.eval_cond
       (Arg_at (0, From_named_function "REPEAT"))
       [ arg ~prov:(Fault.Prov.Func "REPEAT") (Value.Str "xx") ]);
  Alcotest.(check bool) "missing arg index" false
    (Fault.eval_cond (Arg_at (3, Is_null)) [ arg Value.Null ])

let test_stray_exceptions_are_clean_errors () =
  (* statements that once escaped the engine as raw OCaml exceptions
     (Invalid_argument "List.nth", Failure "int_of_string") must come
     back as clean errors, armed or not *)
  let expect_clean d ~armed sql ok =
    let e = Dialect.make_engine ~armed (Dialect.find_exn d) in
    match Engine.exec_sql e sql with
    | Error err when ok err -> ()
    | Error err ->
      Alcotest.failf "%s: %S gave the wrong error: %s" d sql
        (Engine.error_to_string err)
    | Ok _ -> Alcotest.failf "%s: %S succeeded" d sql
    | exception ex ->
      Alcotest.failf "%s: %S raised %s" d sql (Printexc.to_string ex)
  in
  let sql_error = function Engine.Sql_failed _ -> true | _ -> false in
  let parse_error = function Engine.Parse_failed _ -> true | _ -> false in
  List.iter
    (fun armed ->
      List.iter
        (fun d ->
          expect_clean d ~armed
            "SELECT JSON_EXTRACT('{\"a\": [1, 2]}', '$.a[-1]')" sql_error)
        [ "mysql"; "postgresql"; "monetdb" ];
      List.iter
        (fun d ->
          expect_clean d ~armed
            "CREATE TABLE t (c DECIMAL(999999999999999999999910,2))"
            parse_error;
          expect_clean d ~armed "SELECT T::textAN(9999999999999999999999,()"
            parse_error)
        Dialect.ids)
    [ false; true ]

let suite =
  ( "dialects",
    [
      Alcotest.test_case "ledger totals per dialect" `Quick test_ledger_totals;
      Alcotest.test_case "ledger kind totals" `Quick test_ledger_kind_totals;
      Alcotest.test_case "ledger family totals" `Quick test_ledger_family_totals;
      Alcotest.test_case "ledger status totals" `Quick test_ledger_status_totals;
      Alcotest.test_case "ledger sites unique" `Quick test_ledger_sites_unique;
      Alcotest.test_case "ledger functions in inventory" `Quick
        test_ledger_functions_in_inventory;
      Alcotest.test_case "ledger categories match library" `Quick
        test_ledger_categories_match_library;
      Alcotest.test_case "inventory shape (Table 5)" `Quick test_inventory_shape;
      Alcotest.test_case "profiles" `Quick test_profiles;
      Alcotest.test_case "seeds clean (unfaulted)" `Quick
        test_seeds_clean_on_unfaulted_engines;
      Alcotest.test_case "seeds clean (armed)" `Quick
        test_seeds_clean_on_armed_engines;
      Alcotest.test_case "paper PoCs crash armed engines" `Quick
        test_paper_pocs_crash_armed_engines;
      Alcotest.test_case "PoCs clean when disarmed" `Quick
        test_pocs_error_cleanly_when_disarmed;
      Alcotest.test_case "json depth crash on mariadb" `Quick
        test_json_depth_crash_mariadb;
      Alcotest.test_case "trigger evaluation" `Quick test_trigger_eval_unit;
      Alcotest.test_case "stray exceptions are clean errors" `Quick
        test_stray_exceptions_are_clean_errors;
    ] )
