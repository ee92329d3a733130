(* Counters are int refs so the hot path ([hit] on an already-seen
   point — millions of calls per campaign) is one hashtable lookup and
   an in-place increment, not a find_opt/replace pair. *)
type t = { tbl : (string, int ref) Hashtbl.t; mutable hits : int }

let create () = { tbl = Hashtbl.create 256; hits = 0 }

let hit t point =
  t.hits <- t.hits + 1;
  match Hashtbl.find_opt t.tbl point with
  | Some r -> incr r
  | None -> Hashtbl.add t.tbl point (ref 1)

let add t point n =
  t.hits <- t.hits + n;
  match Hashtbl.find_opt t.tbl point with
  | Some r -> r := !r + n
  | None -> Hashtbl.add t.tbl point (ref n)

let count t = Hashtbl.length t.tbl
let total_hits t = t.hits

let points t =
  let l = Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.tbl [] in
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

let mem t point = Hashtbl.mem t.tbl point

let reset t =
  Hashtbl.reset t.tbl;
  t.hits <- 0

let merge_into ~dst src =
  Hashtbl.iter
    (fun k v ->
      match Hashtbl.find_opt dst.tbl k with
      | Some r -> r := !r + !v
      | None -> Hashtbl.add dst.tbl k (ref !v))
    src.tbl;
  dst.hits <- dst.hits + src.hits

let merge a b =
  let t = create () in
  merge_into ~dst:t a;
  merge_into ~dst:t b;
  t

let diff a b =
  Hashtbl.fold (fun k _ acc -> if Hashtbl.mem b.tbl k then acc else k :: acc) a.tbl []
  |> List.sort String.compare

let prefixed_count t prefix =
  let plen = String.length prefix in
  Hashtbl.fold
    (fun k _ acc ->
      if String.length k >= plen && String.sub k 0 plen = prefix then acc + 1
      else acc)
    t.tbl 0

let to_json t =
  Sqlfun_telemetry.Json.Obj
    [
      ("distinct", Sqlfun_telemetry.Json.Int (count t));
      ("total_hits", Sqlfun_telemetry.Json.Int (total_hits t));
      ( "points",
        Sqlfun_telemetry.Json.Obj
          (List.map (fun (k, v) -> (k, Sqlfun_telemetry.Json.Int v)) (points t)) );
    ]
