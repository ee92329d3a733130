open Sqlfun_fault
open Sqlfun_engine
open Sqlfun_dialects
module Coverage = Sqlfun_coverage.Coverage
module Telemetry = Sqlfun_telemetry.Telemetry
module Profile = Sqlfun_telemetry.Profile

type verdict =
  | Passed
  | Clean_error of string
  | False_positive of string
  | New_bug of Fault.spec
  | Dup_bug of Fault.spec
  | Known_crash of string

type found_bug = {
  spec : Fault.spec;
  found_by : Pattern_id.t option;
  poc : string;
  case_number : int;
}

type t = {
  prof : Dialect.profile;
  cov : Coverage.t;
  tel : Telemetry.t;
  xprof : Profile.t;  (* execute-stage attribution profiler *)
  xroot : Profile.fn_stats;  (* its root record, resolved once *)
  engine : Engine.t;
  mutable executed : int;
  mutable passed : int;
  mutable clean_errors : int;
  mutable false_positives : int;
  mutable known_crashes : int;
  mutable dup_crashes : int;  (* Dup_bug verdicts *)
  mutable scenarios : int;  (* stateful scenarios run (prereqs <> []) *)
  mutable prereq_stmts : int;  (* prerequisite statements admitted *)
  (* crash-class verdicts (New/Dup/Known) attributed by occurrence
     stage; a blown stack is execute-stage by definition *)
  mutable stage_parse : int;
  mutable stage_execute : int;
  mutable stage_storage : int;
  baseline : Storage.snapshot;
      (* the post-seed table state every scenario starts from *)
  arming : (string * int) array;
      (* the coverage arming the engine records (seed loading is
         deterministic), credited again on every restart *)
  sites : (string, unit) Hashtbl.t;
  fp_signatures : (string, unit) Hashtbl.t;
  fp_buf : Buffer.t;  (* reused across FP-signature normalizations *)
  mutable found : found_bug list;  (* reversed *)
}

(* The hits [cov] gained since [before] (its earlier [Coverage.points]). *)
let coverage_since cov before =
  let base = Hashtbl.of_seq (List.to_seq before) in
  Coverage.points cov
  |> List.filter_map (fun (point, n) ->
         let d =
           n - Option.value (Hashtbl.find_opt base point) ~default:0
         in
         if d > 0 then Some (point, d) else None)
  |> Array.of_list

let create ?cov ?telemetry ?profile ?(compact = true) prof =
  let cov = match cov with Some c -> c | None -> Coverage.create () in
  let tel = match telemetry with Some t -> t | None -> Telemetry.create () in
  let xprof = match profile with Some p -> p | None -> Profile.create () in
  Profile.set_dialect xprof prof.Dialect.id;
  let before = Coverage.points cov in
  (* arming is timed under the same stage as the post-crash resets, so
     restarts = stage calls - arms *)
  let engine =
    Telemetry.with_span tel ~dialect:prof.Dialect.id "restart-after-crash"
      (fun () ->
        Dialect.make_engine ~cov ~armed:true ~compact ~profile:xprof prof)
  in
  {
    prof;
    cov;
    tel;
    xprof;
    xroot = Profile.root_stats xprof;
    engine;
    executed = 0;
    passed = 0;
    clean_errors = 0;
    false_positives = 0;
    known_crashes = 0;
    dup_crashes = 0;
    scenarios = 0;
    prereq_stmts = 0;
    stage_parse = 0;
    stage_execute = 0;
    stage_storage = 0;
    baseline = Storage.snapshot (Engine.catalog engine);
    arming = coverage_since cov before;
    sites = Hashtbl.create 64;
    fp_signatures = Hashtbl.create 16;
    fp_buf = Buffer.create 128;
    found = [];
  }

(* A restart is the crash path, done as an in-place reset of the
   engine's mutable state ([Interp.env]) rather than a rebuild:
   - [ctx.steps] is zeroed per statement by [Engine.run] anyway;
   - the session is cleared;
   - the catalog is restored to the post-seed baseline, so a crash that
     killed the server mid-scenario (after its CREATE/INSERT
     prerequisites ran) leaks no scenario tables into the next case and
     stateful PoCs replay standalone on a cold engine;
   - the fault runtime (immutable once armed), the registry (static per
     dialect; its resolve cache is a pure memo) and the profiler
     (shared by design) are untouched by a crash.
   A rebuilt engine would also have re-recorded the seed load's
   coverage, so that delta is credited to keep hit counts identical.
   Sinks are flushed first, so a campaign killed mid-restart cannot
   have silently swallowed the events leading up to the crash. *)
let restart t =
  Telemetry.flush t.tel;
  Telemetry.with_span t.tel ~dialect:t.prof.Dialect.id "restart-after-crash"
  @@ fun () ->
  Sqlfun_functions.Fn_ctx.reset_session (Engine.context t.engine);
  Storage.restore (Engine.catalog t.engine) t.baseline;
  Array.iter (fun (point, n) -> Coverage.add t.cov point n) t.arming

let count_stage t = function
  | Fault.Parse -> t.stage_parse <- t.stage_parse + 1
  | Fault.Execute -> t.stage_execute <- t.stage_execute + 1
  | Fault.Storage -> t.stage_storage <- t.stage_storage + 1

let verdict_class = function
  | Passed -> Telemetry.Passed
  | Clean_error _ -> Telemetry.Clean_error
  | False_positive _ -> Telemetry.False_positive
  | New_bug _ -> Telemetry.New_bug
  | Dup_bug _ -> Telemetry.Dup_bug
  | Known_crash _ -> Telemetry.Known_crash

(* [poc] is rendered lazily: pretty-printing every generated statement
   would dominate the runtime, and only crashing statements need SQL.
   [case_number] overrides the detector-local execution index — shard
   workers pass the case's index in the global (unsharded) stream so
   that merged bug records and verdict events carry the same numbers a
   sequential run would have produced. *)
let classify t ?pattern ?case_number ~poc run =
  t.executed <- t.executed + 1;
  let case_number =
    match case_number with Some n -> n | None -> t.executed
  in
  let dialect = t.prof.Dialect.id in
  (* Pattern_id.to_string returns shared literals, so tagging spans and
     counters with the pattern costs no allocation. *)
  let pat =
    match pattern with Some p -> Pattern_id.to_string p | None -> "seed"
  in
  (* Each case runs against a fresh session: stateful functions
     (NEXTVAL/LASTVAL, LAST_INSERT_ID, ROW_COUNT) must not let one
     case's verdict depend on which statements happened to run earlier
     on this engine — that would make PoCs non-replayable standalone
     and break the sharded campaign's determinism guarantee (each shard
     engine only sees a sub-stream of the cases). *)
  Sqlfun_functions.Fn_ctx.reset_session (Engine.context t.engine);
  (* The execute stage is the engine round-trip; crashes are turned into
     data so the span closes with the statement's true wall time. The
     root attribution frame brackets the same interval — whatever the
     engine's named scopes (parse/plan/eval/storage) don't claim of it
     is charged to the [other] bucket as this frame's self-time — and
     the detect span and the classify frame bracket the next one, so
     three clock readings serve all four, whatever the sink. *)
  let close stage ~start ts =
    Profile.exit_at t.xprof ts;
    Telemetry.span_close_at t.tel ~dialect ~pattern:pat stage ~start ts
  in
  let t0 = Profile.enter_now t.xprof t.xroot Profile.Other in
  Telemetry.span_open_at t.tel ~dialect ~pattern:pat "execute" t0;
  let outcome =
    match run () with
    | r -> `Res r
    | exception Fault.Crash spec -> `Crashed spec
    | exception Stack_overflow -> `Blown
    | exception exn ->
      close "execute" ~start:t0 (Telemetry.now_ns ());
      raise exn
  in
  let t1 = Telemetry.now_ns () in
  close "execute" ~start:t0 t1;
  Telemetry.span_open_at t.tel ~dialect ~pattern:pat "detect" t1;
  Profile.enter_at t.xprof t.xroot Profile.Classify t1;
  (* the verdict bookkeeping: counters, FP-signature dedup, crash
     restart, site registration, bug events *)
  let verdict =
    match
      match outcome with
      | `Res (Ok _) ->
        t.passed <- t.passed + 1;
        Passed
      | `Res (Error (Engine.Parse_failed msg | Engine.Sql_failed msg)) ->
        t.clean_errors <- t.clean_errors + 1;
        Clean_error msg
      | `Res (Error (Engine.Limit_hit msg)) ->
        t.false_positives <- t.false_positives + 1;
        (* the paper counts unique false-positive *reports*; dedupe on
           the message with digits normalized out. Stored signatures
           are digit-free ('#' stands for every digit run), so a raw
           message that already hits the table must itself be
           digit-free — its normalization is the identity and can be
           skipped. Messages that do need normalizing reuse one
           per-detector buffer instead of allocating a fresh one per
           false positive. *)
        if Hashtbl.mem t.fp_signatures msg then False_positive msg
        else begin
          let signature =
            let buf = t.fp_buf in
            Buffer.clear buf;
            let prev_digit = ref false in
            String.iter
              (fun c ->
                let is_digit = c >= '0' && c <= '9' in
                if is_digit then begin
                  if not !prev_digit then Buffer.add_char buf '#'
                end
                else Buffer.add_char buf c;
                prev_digit := is_digit)
              msg;
            Buffer.contents buf
          in
          if not (Hashtbl.mem t.fp_signatures signature) then begin
            Hashtbl.add t.fp_signatures signature ();
            Telemetry.fp_event t.tel ~dialect ~signature
          end;
          False_positive msg
        end
      | `Crashed spec ->
        restart t;
        count_stage t spec.Fault.stage;
        if Hashtbl.mem t.sites spec.Fault.site then begin
          t.dup_crashes <- t.dup_crashes + 1;
          Dup_bug spec
        end
        else begin
          Hashtbl.add t.sites spec.Fault.site ();
          t.found <-
            { spec; found_by = pattern; poc = poc (); case_number }
            :: t.found;
          Telemetry.bug_event t.tel ~dialect ~site:spec.Fault.site
            ~kind:(Bug_kind.to_string spec.Fault.kind)
            ~pattern:pat ~case_number;
          New_bug spec
        end
      | `Blown ->
        restart t;
        count_stage t Fault.Execute;
        t.known_crashes <- t.known_crashes + 1;
        Known_crash "stack exhausted (CVE-2015-5289 class)"
    with
    | v -> v
    | exception exn ->
      close "detect" ~start:t1 (Telemetry.now_ns ());
      raise exn
  in
  close "detect" ~start:t1 (Telemetry.now_ns ());
  Telemetry.count_verdict t.tel ~dialect ~pattern:pat ~case_number
    (verdict_class verdict);
  verdict

let run_sql t ?pattern ?case_number sql =
  classify t ?pattern ?case_number
    ~poc:(fun () -> sql)
    (fun () -> Engine.exec_sql t.engine sql)

let run_stmt t ?pattern ?case_number stmt =
  classify t ?pattern ?case_number
    ~poc:(fun () -> Sqlfun_ast.Sql_pp.stmt stmt)
    (fun () -> Engine.exec_stmt t.engine stmt)

let run_case t ?case_number (case : Patterns.case) =
  run_stmt t ~pattern:case.Patterns.pattern ?case_number case.Patterns.stmt

(* ----- stateful scenarios -----

   One scenario = one case: the prerequisites and the probe execute as
   a single classified round-trip (session reset once, at the top — a
   session-state scenario depends on its prerequisites' effects being
   visible to the probe). A clean prerequisite failure is the
   scenario's verdict; a prerequisite crash is a found bug and the
   probe never runs. Afterwards the engine's storage is returned to the
   post-seed baseline: by [restart] if the scenario crashed, explicitly
   otherwise, so no scenario observes another's tables. *)
let run_scenario t ?case_number (sc : Patterns.scenario) =
  match sc.Patterns.prereqs with
  | [] -> run_case t ?case_number sc.Patterns.case
  | prereqs ->
    t.scenarios <- t.scenarios + 1;
    t.prereq_stmts <- t.prereq_stmts + List.length prereqs;
    let case = sc.Patterns.case in
    (* the PoC is the whole statement list: a stateful bug must replay
       standalone from a cold engine *)
    let poc () =
      String.concat ";\n"
        (List.map Sqlfun_ast.Sql_pp.stmt (prereqs @ [ case.Patterns.stmt ]))
    in
    let verdict =
      classify t ~pattern:case.Patterns.pattern ?case_number ~poc (fun () ->
          let rec go = function
            | [] -> Engine.exec_stmt t.engine case.Patterns.stmt
            | p :: rest ->
              (match Engine.exec_stmt t.engine p with
               | Ok _ -> go rest
               | Error _ as e -> e)
          in
          go prereqs)
    in
    (match verdict with
     | New_bug _ | Dup_bug _ | Known_crash _ ->
       (* the crash path already reset the engine to the baseline *)
       ()
     | Passed | Clean_error _ | False_positive _ ->
       Storage.restore (Engine.catalog t.engine) t.baseline);
    verdict

(* ----- slot-stream batched execution -----

   One batch = one skeleton-sharing case family: a skeleton plus one
   slot vector per member. Each member is rebuilt with
   [Patterns.batch_stmt] — structurally equal to the statement the
   unbatched stream would have generated — and classified exactly like
   [run_case], so verdicts, counters, bug records and coverage are the
   unbatched run's. *)
let run_batch t ?case_numbers (b : Patterns.batch) =
  let n = Patterns.batch_size b in
  if n > 0 then begin
    Telemetry.batch_flush t.tel ~cases:n;
    List.iteri
      (fun i vec ->
        let case_number =
          match case_numbers with Some a -> Some a.(i) | None -> None
        in
        ignore
          (run_stmt t ~pattern:b.Patterns.b_pattern ?case_number
             (Patterns.batch_stmt b vec)))
      b.Patterns.b_vecs
  end

(* Re-derives the sequential New-vs-Dup split from per-shard bug lists.

   Within one shard the engine sees its sub-stream in global order, so a
   crash a shard classified as Dup_bug had an earlier same-site crash at
   a smaller global index in the same shard — shard-local dups can never
   be the global first sighting. The shard-local News are therefore the
   only candidates: ordering them by global case number and keeping the
   first per site reproduces exactly the bug list a sequential run
   records, independent of shard count or completion order. *)
let merge_bugs per_shard =
  let all =
    List.sort
      (fun a b -> compare a.case_number b.case_number)
      (List.concat per_shard)
  in
  let seen = Hashtbl.create 64 in
  let kept, demoted =
    List.fold_left
      (fun (kept, demoted) b ->
        if Hashtbl.mem seen b.spec.Fault.site then (kept, b :: demoted)
        else begin
          Hashtbl.add seen b.spec.Fault.site ();
          (b :: kept, demoted)
        end)
      ([], []) all
  in
  (List.rev kept, List.rev demoted)

let executed t = t.executed
let passed t = t.passed
let clean_errors t = t.clean_errors
let false_positives t = t.false_positives
let unique_false_positives t = Hashtbl.length t.fp_signatures

let fp_signatures t =
  Hashtbl.fold (fun k () acc -> k :: acc) t.fp_signatures []
  |> List.sort String.compare
let known_crashes t = t.known_crashes
let dup_crashes t = t.dup_crashes
let scenarios_executed t = t.scenarios
let prereq_statements t = t.prereq_stmts

type stage_counts = { parse : int; execute : int; storage : int }

let stage_verdicts t =
  { parse = t.stage_parse; execute = t.stage_execute; storage = t.stage_storage }
let bugs t = List.rev t.found
let coverage t = t.cov
let arming_coverage t = Array.to_list t.arming
let engine t = t.engine
let profile t = t.prof
let telemetry t = t.tel
let exec_profile t = t.xprof
