let now_ns () = Int64.to_int (Monotonic_clock.now ())

type snapshot = {
  shard : int;
  seq : int;
  final : bool;
  cases : int;
  delta_cases : int;
  elapsed_ns : int;
  delta_ns : int;
  cases_per_s : float;
  branches : int;
  functions : int;
  new_bugs : int;
  dup_bugs : int;
  shard_cases : int array;
}

type probe = {
  p_branches : unit -> int;
  p_functions : unit -> int;
  p_new_bugs : unit -> int;
  p_dup_bugs : unit -> int;
  p_shard_cases : unit -> int array;
}

type cfg = { every_cases : int; every_ms : int; emit : snapshot -> unit }

type t = {
  cfg : cfg;
  shard : int;
  probe : probe;
  start_ns : int;
  mutable seq : int;
  mutable cases : int;
  mutable last_cases : int; (* cases at the previous snapshot *)
  mutable last_ns : int; (* clock at the previous snapshot *)
  mutable next_case_mark : int; (* fire when cases reaches this *)
  mutable next_ns_mark : int; (* fire when the clock reaches this *)
}

let recorder cfg ~shard probe =
  let start = now_ns () in
  {
    cfg;
    shard;
    probe;
    start_ns = start;
    seq = 0;
    cases = 0;
    last_cases = 0;
    last_ns = start;
    next_case_mark = (if cfg.every_cases > 0 then cfg.every_cases else max_int);
    next_ns_mark =
      (if cfg.every_ms > 0 then start + (cfg.every_ms * 1_000_000) else max_int);
  }

let cases t = t.cases

let rate delta_cases delta_ns =
  if delta_ns <= 0 then 0.
  else float_of_int delta_cases /. (float_of_int delta_ns /. 1e9)

let fire t ~final now =
  let delta_cases = t.cases - t.last_cases in
  let delta_ns = now - t.last_ns in
  let snap =
    {
      shard = t.shard;
      seq = t.seq;
      final;
      cases = t.cases;
      delta_cases;
      elapsed_ns = now - t.start_ns;
      delta_ns;
      cases_per_s = rate delta_cases delta_ns;
      branches = t.probe.p_branches ();
      functions = t.probe.p_functions ();
      new_bugs = t.probe.p_new_bugs ();
      dup_bugs = t.probe.p_dup_bugs ();
      shard_cases = t.probe.p_shard_cases ();
    }
  in
  t.seq <- t.seq + 1;
  t.last_cases <- t.cases;
  t.last_ns <- now;
  if t.cfg.every_cases > 0 then t.next_case_mark <- t.cases + t.cfg.every_cases;
  if t.cfg.every_ms > 0 then
    t.next_ns_mark <- now + (t.cfg.every_ms * 1_000_000);
  t.cfg.emit snap

let tick t =
  t.cases <- t.cases + 1;
  if t.cases >= t.next_case_mark then fire t ~final:false (now_ns ())
  else if t.next_ns_mark <> max_int then begin
    let now = now_ns () in
    if now >= t.next_ns_mark then fire t ~final:false now
  end

let finalize t = fire t ~final:true (now_ns ())

let campaign_final cfg ~elapsed_ns ~cases ~branches ~functions ~new_bugs
    ~dup_bugs ~shard_cases =
  let snap =
    {
      shard = -1;
      seq = 0;
      final = true;
      cases;
      delta_cases = cases;
      elapsed_ns;
      delta_ns = elapsed_ns;
      cases_per_s = rate cases elapsed_ns;
      branches;
      functions;
      new_bugs;
      dup_bugs;
      shard_cases;
    }
  in
  cfg.emit snap;
  snap

let snapshot_to_json (s : snapshot) =
  Json.Obj
    [
      ("kind", Json.Str "snapshot");
      ("shard", Json.Int s.shard);
      ("seq", Json.Int s.seq);
      ("final", Json.Bool s.final);
      ("cases", Json.Int s.cases);
      ("delta_cases", Json.Int s.delta_cases);
      ("elapsed_ns", Json.Int s.elapsed_ns);
      ("delta_ns", Json.Int s.delta_ns);
      ("cases_per_s", Json.Float s.cases_per_s);
      ("branches", Json.Int s.branches);
      ("functions", Json.Int s.functions);
      ("new_bugs", Json.Int s.new_bugs);
      ("dup_bugs", Json.Int s.dup_bugs);
      ( "shard_cases",
        Json.Arr (Array.to_list (Array.map (fun n -> Json.Int n) s.shard_cases))
      );
    ]

let snapshot_of_json j =
  let int k =
    match Json.int_member k j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "snapshot: missing int field %S" k)
  in
  let ( let* ) = Result.bind in
  let* () =
    match Json.str_member "kind" j with
    | Some "snapshot" -> Ok ()
    | _ -> Error "snapshot: kind is not \"snapshot\""
  in
  let* shard = int "shard" in
  let* seq = int "seq" in
  let* final =
    match Json.member "final" j with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error "snapshot: missing bool field \"final\""
  in
  let* cases = int "cases" in
  let* delta_cases = int "delta_cases" in
  let* elapsed_ns = int "elapsed_ns" in
  let* delta_ns = int "delta_ns" in
  let* cases_per_s =
    match Json.member "cases_per_s" j with
    | Some (Json.Float f) -> Ok f
    | Some (Json.Int n) -> Ok (float_of_int n)
    | _ -> Error "snapshot: missing number field \"cases_per_s\""
  in
  let* branches = int "branches" in
  let* functions = int "functions" in
  let* new_bugs = int "new_bugs" in
  let* dup_bugs = int "dup_bugs" in
  let* shard_cases =
    match Json.member "shard_cases" j with
    | Some (Json.Arr l) ->
      let rec ints acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | Json.Int n :: rest -> ints (n :: acc) rest
        | _ -> Error "snapshot: shard_cases holds a non-int"
      in
      ints [] l
    | _ -> Error "snapshot: missing array field \"shard_cases\""
  in
  Ok
    {
      shard;
      seq;
      final;
      cases;
      delta_cases;
      elapsed_ns;
      delta_ns;
      cases_per_s;
      branches;
      functions;
      new_bugs;
      dup_bugs;
      shard_cases;
    }

(* one process-wide lock: several recorders (one per shard) may share an
   output channel, and interleaved [output_string] halves are not JSONL *)
let jsonl_lock = Mutex.create ()

let jsonl_emit oc s =
  let line = Json.to_string (snapshot_to_json s) in
  Mutex.lock jsonl_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock jsonl_lock)
    (fun () ->
      output_string oc line;
      output_char oc '\n')
