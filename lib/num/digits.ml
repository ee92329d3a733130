(* Digits of a non-positive number, most significant first: working on
   the negative side keeps [min_int] in range. At most 19 frames deep. *)
let rec add_neg buf n =
  if n <= -10 then add_neg buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let rec add_neg64 buf n =
  if Int64.compare n (-10L) <= 0 then add_neg64 buf (Int64.div n 10L);
  Buffer.add_char buf (Char.unsafe_chr (48 - Int64.to_int (Int64.rem n 10L)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg buf n
  end
  else add_neg buf (-n)

(* native ints are 63-bit: the boxed int64 loop only runs beyond 2^62 *)
let add_int64 buf i =
  let n = Int64.to_int i in
  if Int64.equal (Int64.of_int n) i then add_int buf n
  else if Int64.compare i 0L < 0 then begin
    Buffer.add_char buf '-';
    add_neg64 buf i
  end
  else add_neg64 buf (Int64.neg i)

let int64_to_string i =
  let buf = Buffer.create 20 in
  add_int64 buf i;
  Buffer.contents buf

let rec count_neg n = if n <= -10 then 1 + count_neg (n / 10) else 1

let add_padded buf width n =
  let neg = if n < 0 then n else -n in
  let width = if n < 0 then width - 1 else width in
  if n < 0 then Buffer.add_char buf '-';
  for _ = count_neg neg + 1 to width do
    Buffer.add_char buf '0'
  done;
  add_neg buf neg
