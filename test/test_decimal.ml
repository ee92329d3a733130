open Sqlfun_num

let dec = Decimal.of_string_exn

let check_str msg expected d = Alcotest.(check string) msg expected (Decimal.to_string d)

let test_parse_basic () =
  check_str "int" "42" (dec "42");
  check_str "neg" "-42" (dec "-42");
  check_str "frac" "3.14" (dec "3.14");
  check_str "lead-dot" "0.5" (dec ".5");
  check_str "plus" "7" (dec "+7");
  check_str "zero" "0" (dec "0");
  check_str "neg-zero" "0" (dec "-0");
  check_str "trailing-frac-zeros kept" "1.500" (dec "1.500")

let test_parse_exponent () =
  check_str "e3" "1500" (dec "1.5e3");
  check_str "e-2" "0.01" (dec "1e-2");
  check_str "E+1" "25" (dec "2.5E+1");
  check_str "neg exp deep" "-0.000012" (dec "-1.2e-5")

let test_parse_errors () =
  let bad s =
    match Decimal.of_string s with
    | Ok _ -> Alcotest.failf "expected failure for %S" s
    | Error _ -> ()
  in
  bad "";
  bad "abc";
  bad "1.2.3";
  bad "1e";
  bad "--5"

let test_huge_digits () =
  (* 60-digit decimals (MDEV-8407 territory) must survive intact. *)
  let d60 = String.concat "" (List.init 6 (fun _ -> "1234567890")) in
  check_str "60 digits" d60 (dec d60);
  Alcotest.(check int) "precision" 60 (Decimal.precision (dec d60));
  Alcotest.(check int) "int_digits" 60 (Decimal.int_digits (dec d60))

let test_int_digits_of_fraction () =
  Alcotest.(check int) "0.5 has 1 int digit" 1 (Decimal.int_digits (dec "0.5"));
  Alcotest.(check int) "0 has 1 int digit" 1 (Decimal.int_digits (dec "0"));
  Alcotest.(check int) "12.3" 2 (Decimal.int_digits (dec "12.3"))

let test_add_sub () =
  check_str "add" "3.14" (Decimal.add (dec "3") (dec "0.14"));
  check_str "carry" "100" (Decimal.add (dec "99") (dec "1"));
  check_str "mixed signs" "-1" (Decimal.add (dec "1") (dec "-2"));
  check_str "sub" "0.9" (Decimal.sub (dec "1.2") (dec "0.3"));
  check_str "sub to zero" "0.0" (Decimal.sub (dec "5.5") (dec "5.5"));
  check_str "neg minus neg" "-0.1" (Decimal.sub (dec "-0.4") (dec "-0.3"))

let test_mul () =
  check_str "mul" "0.002" (Decimal.mul (dec "0.1") (dec "0.02"));
  check_str "mul neg" "-6" (Decimal.mul (dec "2") (dec "-3"));
  check_str "mul zero" "0.00" (Decimal.mul (dec "0.0") (dec "123.4"));
  let big = dec (String.make 40 '9') in
  let sq = Decimal.mul big big in
  Alcotest.(check int) "40x40 digit square precision" 80 (Decimal.precision sq)

let test_div () =
  (match Decimal.div ~scale:4 (dec "1") (dec "3") with
   | Some q -> check_str "1/3" "0.3333" q
   | None -> Alcotest.fail "div returned None");
  (match Decimal.div ~scale:2 (dec "10") (dec "4") with
   | Some q -> check_str "10/4" "2.50" q
   | None -> Alcotest.fail "div returned None");
  (match Decimal.div ~scale:0 (dec "7") (dec "2") with
   | Some q -> check_str "7/2 rounds half-up" "4" q
   | None -> Alcotest.fail "div returned None");
  (* divisors below 1 keep a '0' integer digit in their digit string *)
  (match Decimal.div ~scale:2 (dec "9") (dec "0.5") with
   | Some q -> check_str "9/0.5" "18.00" q
   | None -> Alcotest.fail "div returned None");
  (match Decimal.div ~scale:0 (dec "7") (dec "0.3") with
   | Some q -> check_str "7/0.3" "23" q
   | None -> Alcotest.fail "div returned None");
  (match Decimal.div ~scale:3 (dec "0.001") (dec "0.007") with
   | Some q -> check_str "0.001/0.007" "0.143" q
   | None -> Alcotest.fail "div returned None");
  (match Decimal.div ~scale:1 (dec "-3") (dec "0.0004") with
   | Some q -> check_str "-3/0.0004" "-7500.0" q
   | None -> Alcotest.fail "div returned None");
  Alcotest.(check bool) "div by zero" true
    (Decimal.div ~scale:2 (dec "1") (dec "0") = None)

let test_round () =
  check_str "round down" "1.23" (Decimal.round ~scale:2 (dec "1.234"));
  check_str "round half up" "1.24" (Decimal.round ~scale:2 (dec "1.235"));
  check_str "round carries" "10.0" (Decimal.round ~scale:1 (dec "9.99"));
  check_str "pad" "5.00" (Decimal.round ~scale:2 (dec "5"))

let test_compare () =
  let lt a b = Alcotest.(check bool) (a ^ " < " ^ b) true (Decimal.compare (dec a) (dec b) < 0) in
  lt "-1" "1";
  lt "1.1" "1.2";
  lt "-2" "-1";
  lt "0.999" "1";
  Alcotest.(check bool) "scale-insensitive equality" true
    (Decimal.equal (dec "1.50") (dec "1.5"));
  Alcotest.(check bool) "0 = -0" true (Decimal.equal (dec "0") (dec "-0"))

let test_scientific () =
  Alcotest.(check string) "sci" "1.5e-32"
    (Decimal.to_scientific (dec "0.000000000000000000000000000000015"));
  Alcotest.(check string) "sci big" "1.2e10" (Decimal.to_scientific (dec "12000000000"));
  Alcotest.(check string) "sci one digit" "5e0" (Decimal.to_scientific (dec "5"));
  Alcotest.(check string) "sci zero" "0e0" (Decimal.to_scientific (dec "0"))

let test_int64_bridge () =
  Alcotest.(check (option int64)) "to_int64" (Some 42L) (Decimal.to_int64 (dec "42.9"));
  Alcotest.(check (option int64)) "negative" (Some (-7L)) (Decimal.to_int64 (dec "-7.5"));
  Alcotest.(check (option int64)) "overflow" None
    (Decimal.to_int64 (dec (String.make 25 '9')));
  check_str "of_int64 min" "-9223372036854775808" (Decimal.of_int64 Int64.min_int)

let test_checked_int () =
  Alcotest.(check (option int64)) "add ok" (Some 3L) (Checked_int.add 1L 2L);
  Alcotest.(check (option int64)) "add overflow" None
    (Checked_int.add Int64.max_int 1L);
  Alcotest.(check (option int64)) "sub underflow" None
    (Checked_int.sub Int64.min_int 1L);
  Alcotest.(check (option int64)) "mul overflow" None
    (Checked_int.mul 4611686018427387904L 4L);
  Alcotest.(check (option int64)) "mul ok" (Some (-8L)) (Checked_int.mul 2L (-4L));
  Alcotest.(check (option int64)) "div min by -1" None
    (Checked_int.div Int64.min_int (-1L));
  Alcotest.(check (option int64)) "neg min" None (Checked_int.neg Int64.min_int);
  Alcotest.(check (option int64)) "pow" (Some 1024L) (Checked_int.pow 2L 10L);
  Alcotest.(check (option int64)) "pow overflow" None (Checked_int.pow 10L 30L);
  Alcotest.(check (option int64)) "pow neg" None (Checked_int.pow 2L (-1L));
  Alcotest.(check (option int64)) "of_float nan" None (Checked_int.of_float Float.nan)

(* property tests *)

let arb_decimal =
  let gen =
    QCheck.Gen.(
      map2
        (fun neg (digits, scale) ->
          let digits = if digits = "" then "0" else digits in
          Decimal.make ~neg ~digits ~scale)
        bool
        (pair
           (map (fun l -> String.concat "" (List.map string_of_int l))
              (list_size (int_range 1 30) (int_range 0 9)))
           (int_range 0 10)))
  in
  QCheck.make ~print:Decimal.to_string gen

let prop_add_comm =
  QCheck.Test.make ~name:"decimal add commutative" ~count:300
    (QCheck.pair arb_decimal arb_decimal) (fun (a, b) ->
      Decimal.equal (Decimal.add a b) (Decimal.add b a))

let prop_add_assoc =
  QCheck.Test.make ~name:"decimal add associative" ~count:300
    (QCheck.triple arb_decimal arb_decimal arb_decimal) (fun (a, b, c) ->
      Decimal.equal
        (Decimal.add a (Decimal.add b c))
        (Decimal.add (Decimal.add a b) c))

let prop_sub_self_zero =
  QCheck.Test.make ~name:"decimal x - x = 0" ~count:300 arb_decimal (fun a ->
      Decimal.is_zero (Decimal.sub a a))

let prop_mul_comm =
  QCheck.Test.make ~name:"decimal mul commutative" ~count:300
    (QCheck.pair arb_decimal arb_decimal) (fun (a, b) ->
      Decimal.equal (Decimal.mul a b) (Decimal.mul b a))

let prop_mul_one =
  QCheck.Test.make ~name:"decimal x * 1 = x" ~count:300 arb_decimal (fun a ->
      Decimal.equal (Decimal.mul a Decimal.one) a)

let prop_distrib =
  QCheck.Test.make ~name:"decimal distributivity" ~count:300
    (QCheck.triple arb_decimal arb_decimal arb_decimal) (fun (a, b, c) ->
      Decimal.equal
        (Decimal.mul a (Decimal.add b c))
        (Decimal.add (Decimal.mul a b) (Decimal.mul a c)))

let prop_roundtrip =
  QCheck.Test.make ~name:"decimal to_string/of_string round trip" ~count:300
    arb_decimal (fun a ->
      Decimal.equal a (Decimal.of_string_exn (Decimal.to_string a)))

let prop_compare_total =
  QCheck.Test.make ~name:"decimal compare antisymmetric" ~count:300
    (QCheck.pair arb_decimal arb_decimal) (fun (a, b) ->
      Decimal.compare a b = -Decimal.compare b a)

let prop_neg_involutive =
  QCheck.Test.make ~name:"decimal neg involutive" ~count:300 arb_decimal
    (fun a -> Decimal.equal (Decimal.neg (Decimal.neg a)) a)

(* division checked by multiplication: q = a / b rounded half-up to s
   digits is within half a unit of the last digit, |a - q*b| <= |b| *
   10^-s / 2. Operands run up to 300 digits with any scale, so divisors
   range from long integers to fractions below 1 such as 0.05, whose digit
   strings keep a leading '0'. *)
let prop_div =
  let arb_operand =
    QCheck.Gen.(
      let* len = oneof [ int_range 1 6; int_range 1 300 ] in
      let* digits = string_size ~gen:(char_range '0' '9') (return len) in
      let* scale = int_range 0 (len + 2) in
      let* neg = bool in
      return (Decimal.make ~neg ~digits ~scale))
  in
  QCheck.Test.make ~name:"decimal div: |a - q*b| <= |b| * 10^-s / 2" ~count:300
    (QCheck.make
       ~print:(fun (a, b, s) ->
         Printf.sprintf "%s / %s at scale %d" (Decimal.to_string a)
           (Decimal.to_string b) s)
       QCheck.Gen.(triple arb_operand arb_operand (int_range 0 6)))
    (fun (a, b, s) ->
      QCheck.assume (not (Decimal.is_zero b));
      match Decimal.div ~scale:s a b with
      | None -> false
      | Some q ->
        let err = Decimal.abs (Decimal.sub a (Decimal.mul q b)) in
        let half_unit = Decimal.make ~neg:false ~digits:"5" ~scale:(s + 1) in
        Decimal.scale q = s
        && Decimal.compare err (Decimal.mul (Decimal.abs b) half_unit) <= 0)

let suite =
  let qc = List.map QCheck_alcotest.to_alcotest in
  ( "decimal",
    [
      Alcotest.test_case "parse basic" `Quick test_parse_basic;
      Alcotest.test_case "parse exponent" `Quick test_parse_exponent;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "huge digits" `Quick test_huge_digits;
      Alcotest.test_case "int digits of fraction" `Quick test_int_digits_of_fraction;
      Alcotest.test_case "add/sub" `Quick test_add_sub;
      Alcotest.test_case "mul" `Quick test_mul;
      Alcotest.test_case "div" `Quick test_div;
      Alcotest.test_case "round" `Quick test_round;
      Alcotest.test_case "compare" `Quick test_compare;
      Alcotest.test_case "scientific" `Quick test_scientific;
      Alcotest.test_case "int64 bridge" `Quick test_int64_bridge;
      Alcotest.test_case "checked int" `Quick test_checked_int;
    ]
    @ qc
        [
          prop_add_comm;
          prop_add_assoc;
          prop_sub_self_zero;
          prop_mul_comm;
          prop_mul_one;
          prop_distrib;
          prop_roundtrip;
          prop_compare_total;
          prop_neg_involutive;
          prop_div;
        ] )
