(* Outside-in span recorder for the traced benchmark run.

   Spans are opened by the benchmark around calls into the program's
   public entry points — never inside the program — and are kept in
   memory until [write] dumps them once, after the run.

   Two kinds of record:
   - a [span] is one timed call with its own identity (name, start, end,
     parent span, run id) — the coarse calls: a dialect campaign,
     [Collector.collect], [Detector.create], the seed replay;
   - a [group] aggregates the per-item calls of one name under one
     parent span ([Patterns] stream forcing, [Detector.run_case] /
     [run_batch] / [run_scenario]): count, total and max, plus every
     duration when percentiles are wanted. A sweep issues ~2.5M such
     calls; materialising each as a span record would make the traced
     run measure its own bookkeeping instead of the program.

   Self time of a span is its duration minus its children (child spans
   and groups); a group is a leaf, so its self time is its total. By
   construction, summed self time plus [unattributed_ns] equals the
   traced wall time. *)

let now_ns = Sqlfun_telemetry.Telemetry.now_ns

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] at top level *)
  run : int;
  start_ns : int;
  mutable end_ns : int;
}

type group = {
  g_name : string;
  g_parent : int;
  g_run : int;
  mutable count : int;
  mutable total_ns : int;
  mutable max_ns : int;
  keep : bool;  (** whether [durs] records every duration *)
  mutable durs : int array;
}

type t = {
  t0 : int;
  mutable t1 : int;  (** [0] while the trace is open *)
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable run : int;
  mutable groups : group list;  (** newest first *)
}

let create () =
  {
    t0 = now_ns ();
    t1 = 0;
    spans = [];
    next_id = 0;
    stack = [];
    run = 0;
    groups = [];
  }

let set_run t run = t.run <- run
let parent t = match t.stack with p :: _ -> p | [] -> -1

let with_span t name f =
  let sp =
    {
      id = t.next_id;
      name;
      parent = parent t;
      run = t.run;
      start_ns = now_ns ();
      end_ns = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.spans <- sp :: t.spans;
  t.stack <- sp.id :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      sp.end_ns <- now_ns ();
      t.stack <- List.tl t.stack)
    f

(* A group of per-item spans under the innermost open span. Resolve it
   once, outside the item loop. *)
let group ?(keep = false) t name =
  let g =
    {
      g_name = name;
      g_parent = parent t;
      g_run = t.run;
      count = 0;
      total_ns = 0;
      max_ns = 0;
      keep;
      durs = (if keep then Array.make 1024 0 else [||]);
    }
  in
  t.groups <- g :: t.groups;
  g

let add g d =
  if g.keep then begin
    if g.count = Array.length g.durs then begin
      let bigger = Array.make (2 * g.count) 0 in
      Array.blit g.durs 0 bigger 0 g.count;
      g.durs <- bigger
    end;
    g.durs.(g.count) <- d
  end;
  g.count <- g.count + 1;
  g.total_ns <- g.total_ns + d;
  if d > g.max_ns then g.max_ns <- d

(* Time one item of [g]. *)
let timed g f =
  let s = now_ns () in
  let r = f () in
  add g (now_ns () - s);
  r

let finish t = if t.t1 = 0 then t.t1 <- now_ns ()
let wall_ns t = (if t.t1 = 0 then now_ns () else t.t1) - t.t0

(* ----- derived views ----- *)

let children_ns t id =
  List.fold_left
    (fun acc sp -> if sp.parent = id then acc + (sp.end_ns - sp.start_ns) else acc)
    0 t.spans
  + List.fold_left
      (fun acc g -> if g.g_parent = id then acc + g.total_ns else acc)
      0 t.groups

let span_self_ns t sp = sp.end_ns - sp.start_ns - children_ns t sp.id

(* Self time summed by name, spans and groups alike, sorted by name. *)
let self_by_name t =
  let tbl = Hashtbl.create 16 in
  let bump name d =
    Hashtbl.replace tbl name
      (d + Option.value ~default:0 (Hashtbl.find_opt tbl name))
  in
  List.iter (fun sp -> bump sp.name (span_self_ns t sp)) t.spans;
  List.iter (fun g -> bump g.g_name g.total_ns) t.groups;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let self_ns t name =
  Option.value ~default:0 (List.assoc_opt name (self_by_name t))

let count t name =
  List.fold_left
    (fun acc g -> if g.g_name = name then acc + g.count else acc)
    0 t.groups
  + List.length (List.filter (fun sp -> sp.name = name) t.spans)

(* The traced wall time no top-level span or group accounts for: the
   benchmark's own glue between campaigns. *)
let unattributed_ns t = wall_ns t - children_ns t (-1)

(* Every recorded duration of the named groups, sorted ascending. *)
let durations t names =
  let gs = List.filter (fun g -> g.keep && List.mem g.g_name names) t.groups in
  let a = Array.concat (List.map (fun g -> Array.sub g.durs 0 g.count) gs) in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array; [0] when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let k = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (k - 1)))

(* One JSON object per line: every span, then every group; times are
   nanoseconds from the start of the trace. *)
let write oc t =
  let module Json = Sqlfun_telemetry.Json in
  let line j =
    output_string oc (Json.to_string j);
    output_char oc '\n'
  in
  List.iter
    (fun sp ->
      line
        (Json.Obj
           [
             ("kind", Json.Str "span");
             ("id", Json.Int sp.id);
             ("name", Json.Str sp.name);
             ("parent", Json.Int sp.parent);
             ("run", Json.Int sp.run);
             ("start_ns", Json.Int (sp.start_ns - t.t0));
             ("end_ns", Json.Int (sp.end_ns - t.t0));
             ("self_ns", Json.Int (span_self_ns t sp));
           ]))
    (List.rev t.spans);
  List.iter
    (fun g ->
      line
        (Json.Obj
           [
             ("kind", Json.Str "group");
             ("name", Json.Str g.g_name);
             ("parent", Json.Int g.g_parent);
             ("run", Json.Int g.g_run);
             ("count", Json.Int g.count);
             ("total_ns", Json.Int g.total_ns);
             ("max_ns", Json.Int g.max_ns);
           ]))
    (List.rev t.groups);
  line
    (Json.Obj
       [
         ("kind", Json.Str "total");
         ("wall_ns", Json.Int (wall_ns t));
         ("unattributed_ns", Json.Int (unattributed_ns t));
       ])
