(* One measured process of the campaign benchmark. perfbench/run.py
   starts a fresh one per measurement, so every campaign starts cold
   and its peak heap is its own:

     campaign.exe setup ORDER
     campaign.exe run WORKLOAD JOBS ORDER
     campaign.exe trace WORKLOAD JOBS ORDER TRACE_FILE

   ORDER is a comma-separated list of dialect ids, the order the
   campaigns run in. Each mode prints one JSON object on stdout. *)

open Perfbench
open Sqlfun_dialects
module Json = Sqlfun_telemetry.Json

let usage () =
  prerr_endline
    "usage: campaign.exe (setup ORDER | run WORKLOAD JOBS ORDER | trace \
     WORKLOAD JOBS ORDER TRACE_FILE)";
  exit 2

let order_of s =
  List.map
    (fun id ->
      match Dialect.find id with
      | Some p -> p
      | None ->
        prerr_endline ("unknown dialect: " ^ id);
        exit 2)
    (String.split_on_char ',' s)

let workload_of s =
  match Sweep.workload_of_string s with
  | Some w -> w
  | None ->
    prerr_endline ("unknown workload: " ^ s);
    exit 2

let jobs_of s =
  match int_of_string_opt s with
  | Some j when j >= 1 -> j
  | _ -> usage ()

let print j = print_endline (Json.to_string j)

let outcomes results =
  Json.Arr (List.map (fun (id, o) -> Sweep.outcome_to_json id o) results)

let peak_heap_bytes () =
  (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)

let run w jobs order =
  let t0 = Trace.now_ns () in
  let results =
    List.map
      (fun prof ->
        ( prof.Dialect.id,
          match Sweep.fuzz ~jobs w prof with
          | r -> Ok (Sweep.verdicts_of_result r)
          | exception e -> Error (Printexc.to_string e) ))
      order
  in
  let wall = Trace.now_ns () - t0 in
  print
    (Json.Obj
       [
         ("wall_ns", Json.Int wall);
         ("peak_heap_bytes", Json.Int (peak_heap_bytes ()));
         ("ocaml", Json.Str Sys.ocaml_version);
         ("campaigns", outcomes results);
       ])

let trace w jobs order file =
  let tr = Trace.create () in
  let l = Sweep.new_layers () in
  let results = Sweep.traced ~jobs w tr l order in
  Trace.finish tr;
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Trace.write oc tr);
  let jobs = match w with Sweep.Default_sharded -> jobs | _ -> 1 in
  print
    (Json.Obj
       [
         ("wall_ns", Json.Int (Trace.wall_ns tr));
         ("cases", Json.Int l.Sweep.cases);
         ( "layers",
           Json.Obj
             (List.map
                (fun (name, v, unit) ->
                  (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
                (Sweep.layer_metrics ~jobs tr l)) );
         ("campaigns", outcomes results);
       ])

let setup order =
  let per = List.map (fun prof -> (prof.Dialect.id, Sweep.setup_ns prof)) order in
  print
    (Json.Obj
       [
         ("setup_ns", Json.Int (List.fold_left (fun acc (_, ns) -> acc + ns) 0 per));
         ("per_dialect", Json.Obj (List.map (fun (id, ns) -> (id, Json.Int ns)) per));
       ])

let () =
  match Array.to_list Sys.argv with
  | [ _; "setup"; order ] -> setup (order_of order)
  | [ _; "run"; w; jobs; order ] -> run (workload_of w) (jobs_of jobs) (order_of order)
  | [ _; "trace"; w; jobs; order; file ] ->
    trace (workload_of w) (jobs_of jobs) (order_of order) file
  | _ -> usage ()
