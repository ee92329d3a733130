open Sqlfun_ast
open Sqlfun_fault
open Sqlfun_functions

type case = { stmt : Ast.stmt; pattern : Pattern_id.t; origin : string }

(* ----- substitution plumbing ----- *)

(* Replace argument [ai] of call [c], which is call number [ci]
   (pre-order) in [stmt]. The call node is passed in by the position
   enumeration — recomputing [Ast_util.function_calls] here would
   re-traverse the statement once per (position, variant) pair, an
   O(positions^2) hot path. [ci] still numbers the same pre-order walk
   [positions] enumerated, keeping it in lockstep with
   [replace_nth_call]. *)
let with_arg stmt ci (c : Ast.call) ai make_new =
  match List.nth_opt c.Ast.args ai with
  | None -> None
  | Some old_arg ->
    (match make_new old_arg with
     | None -> None
     | Some new_arg ->
       let args = List.mapi (fun i a -> if i = ai then new_arg else a) c.Ast.args in
       Ast_util.replace_nth_call stmt ci (Ast.Call { c with args }))

(* All (call index, arg index, call) positions of a statement. *)
let positions stmt =
  List.concat
    (List.mapi
       (fun ci (c : Ast.call) ->
         List.mapi (fun ai _ -> (ci, ai, c)) c.Ast.args)
       (Ast_util.function_calls stmt))

let count_positions seeds =
  List.fold_left
    (fun acc (s : Collector.seed) -> acc + List.length (positions s.Collector.stmt))
    0 seeds

let seq_of_list = List.to_seq

(* Lazily map a generator over every (seed, position). *)
let over_positions seeds f =
  seq_of_list seeds
  |> Seq.concat_map (fun (seed : Collector.seed) ->
         let origin = Sql_pp.stmt seed.Collector.stmt in
         seq_of_list (positions seed.Collector.stmt)
         |> Seq.concat_map (fun (ci, ai, call) ->
                f ~stmt:seed.Collector.stmt ~origin ~ci ~ai ~call))

let case pattern origin stmt = { stmt; pattern; origin }

let small_stmt (stmt : Ast.stmt) = Ast_util.count_function_exprs stmt <= 2

(* ----- the string-literal surgery of P1.3 / P1.4 / P3.1 ----- *)

let splice_digits s =
  (* insert a 9-run after the first character and before the last *)
  let n = String.length s in
  List.concat_map
    (fun run_len ->
      let run = String.make run_len '9' in
      if n = 0 then [ run ]
      else
        [
          String.sub s 0 1 ^ run ^ String.sub s 1 (n - 1);
          String.sub s 0 (n - 1) ^ run ^ String.sub s (n - 1) 1;
        ])
    Boundary_pool.splice_lengths

let splice_into_number s =
  (* c[:i] + 99999 + c[i+1:] on the digit string, after the first digit
     and after the decimal point when present *)
  let insert_at i run =
    if i > String.length s then None
    else Some (String.sub s 0 i ^ run ^ String.sub s i (String.length s - i))
  in
  List.concat_map
    (fun run_len ->
      let run = String.make run_len '9' in
      let after_first = insert_at 1 run in
      let after_dot =
        match String.index_opt s '.' with
        | Some i -> insert_at (i + 1) run
        | None -> None
      in
      List.filter_map Fun.id [ after_first; after_dot ])
    Boundary_pool.splice_lengths

let duplicate_chars s =
  (* duplicate the first character k times, and the middle character *)
  let n = String.length s in
  if n = 0 then []
  else
    List.concat_map
      (fun k ->
        let first = String.make k s.[0] ^ s in
        let mid_idx = n / 2 in
        let mid =
          String.sub s 0 mid_idx
          ^ String.make k s.[mid_idx]
          ^ String.sub s mid_idx (n - mid_idx)
        in
        [ first; mid ])
      Boundary_pool.dup_factors

(* ----- per-pattern generators ----- *)

let p1_1 () =
  seq_of_list (Boundary_pool.all ())
  |> Seq.filter_map (fun lit ->
         match lit with
         | Ast.Star -> None (* a bare SELECT * probe is not a function test *)
         | _ ->
           Some (case Pattern_id.P1_1 "pool" (Ast.select_expr lit)))

let p1_2 seeds =
  over_positions seeds (fun ~stmt ~origin ~ci ~ai ~call ->
      seq_of_list (Boundary_pool.all ())
      |> Seq.filter_map (fun lit ->
             match with_arg stmt ci call ai (fun _ -> Some lit) with
             | Some stmt' -> Some (case Pattern_id.P1_2 origin stmt')
             | None -> None))

let literal_arg_variants stmt ci (c : Ast.call) ai variants_of =
  match List.nth_opt c.Ast.args ai with
  | Some arg ->
    (match variants_of arg with
     | [] -> []
     | variants ->
       List.filter_map
         (fun v -> with_arg stmt ci c ai (fun _ -> Some v))
         variants)
  | None -> []

let p1_3_variants_of = function
  | Ast.Str_lit s when s <> "" ->
    List.map (fun s' -> Ast.Str_lit s') (splice_digits s)
  | Ast.Int_lit s -> List.map (fun s' -> Ast.Int_lit s') (splice_into_number s)
  | Ast.Dec_lit s -> List.map (fun s' -> Ast.Dec_lit s') (splice_into_number s)
  | _ -> []

let p1_3 seeds =
  over_positions seeds (fun ~stmt ~origin ~ci ~ai ~call ->
      seq_of_list (literal_arg_variants stmt ci call ai p1_3_variants_of)
      |> Seq.map (fun stmt' -> case Pattern_id.P1_3 origin stmt'))

let p1_4_variants_of = function
  | Ast.Str_lit s when s <> "" ->
    List.map (fun s' -> Ast.Str_lit s') (duplicate_chars s)
  | _ -> []

let p1_4 seeds =
  over_positions seeds (fun ~stmt ~origin ~ci ~ai ~call ->
      seq_of_list (literal_arg_variants stmt ci call ai p1_4_variants_of)
      |> Seq.map (fun stmt' -> case Pattern_id.P1_4 origin stmt'))

let p2_1 seeds =
  over_positions seeds (fun ~stmt ~origin ~ci ~ai ~call ->
      seq_of_list Boundary_pool.cast_targets
      |> Seq.filter_map (fun ty ->
             match with_arg stmt ci call ai (fun arg -> Some (Ast.Cast (arg, ty))) with
             | Some stmt' -> Some (case Pattern_id.P2_1 origin stmt')
             | None -> None))

let scalar_subquery_union a b =
  Ast.Subquery
    {
      Ast.body =
        Ast.Body_union
          {
            all = false;
            left = Ast.Body_select (Ast.simple_select [ Ast.Proj_expr (a, None) ]);
            right = Ast.Body_select (Ast.simple_select [ Ast.Proj_expr (b, None) ]);
          };
      order_by = [];
      limit = None;
    }

let p2_2 seeds =
  over_positions seeds (fun ~stmt ~origin ~ci ~ai ~call ->
      seq_of_list (Boundary_pool.union_partners ())
      |> Seq.concat_map (fun partner ->
             let both =
               [
                 with_arg stmt ci call ai (fun arg ->
                     if arg = Ast.Star then None
                     else Some (scalar_subquery_union arg partner));
                 with_arg stmt ci call ai (fun arg ->
                     if arg = Ast.Star then None
                     else Some (scalar_subquery_union partner arg));
               ]
             in
             seq_of_list
               (List.filter_map
                  (Option.map (fun stmt' -> case Pattern_id.P2_2 origin stmt'))
                  both)))

(* P2.3: replace a call's argument list with another function's arguments.
   Donor lists are truncated to the receiver's maximum arity; missing
   positions keep the receiver's original arguments. *)
let is_literal_expr = function
  | Ast.Null | Ast.Bool_lit _ | Ast.Int_lit _ | Ast.Dec_lit _ | Ast.Str_lit _
  | Ast.Hex_lit _ ->
    true
  | _ -> false

let p2_3_donor_arglists seeds =
  List.filter_map
    (fun (c : Ast.call) ->
      if c.Ast.args <> [] && List.for_all is_literal_expr c.Ast.args then
        Some c.Ast.args
      else None)
    (Collector.donors seeds)

(* The replacement-call variants one receiver admits, in donor order:
   each donor list truncated to the receiver's maximum arity, missing
   positions keeping the receiver's original arguments, no-op and
   empty substitutions dropped. *)
let p2_3_variants_of spec (c : Ast.call) donor_arglists =
  List.filter_map
    (fun donor_args ->
      let max_n =
        match spec.Func_sig.max_args with
        | Some mx -> mx
        | None -> List.length donor_args
      in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      let taken = take max_n donor_args in
      let rec drop n = function
        | l when n = 0 -> l
        | [] -> []
        | _ :: rest -> drop (n - 1) rest
      in
      let args = taken @ drop (List.length taken) c.Ast.args in
      if args = c.Ast.args || args = [] then None
      else Some (Ast.Call { c with args }))
    donor_arglists

let p2_3 ~registry seeds =
  (* Only literal argument lists migrate between functions: P2.3 is about
     *format* mismatch of plain values (a date string landing in a JSON
     slot); nested calls as arguments are P3.3's territory. *)
  let donor_arglists = p2_3_donor_arglists seeds in
  seq_of_list seeds
  |> Seq.concat_map (fun (seed : Collector.seed) ->
         let stmt = seed.Collector.stmt in
         if not (small_stmt stmt) then Seq.empty
         else begin
           let origin = Sql_pp.stmt stmt in
           let calls = Ast_util.function_calls stmt in
           seq_of_list (List.mapi (fun ci c -> (ci, c)) calls)
           |> Seq.concat_map (fun (ci, (c : Ast.call)) ->
                  match Registry.find registry c.Ast.fname with
                  | None -> Seq.empty
                  | Some spec ->
                    seq_of_list (p2_3_variants_of spec c donor_arglists)
                    |> Seq.filter_map (fun repl ->
                           Ast_util.replace_nth_call stmt ci repl
                           |> Option.map (fun stmt' ->
                                  case Pattern_id.P2_3 origin stmt')))
         end)

let p3_1_variants_of = function
  | Ast.Str_lit s when s <> "" ->
    let prefixes =
      List.sort_uniq compare
        [
          String.sub s 0 1;
          String.sub s 0 (Stdlib.min 2 (String.length s));
          String.sub s 0 (Stdlib.min 3 (String.length s));
        ]
    in
    List.concat_map
      (fun prefix ->
        List.map
          (fun count ->
            Ast.call "REPEAT"
              [ Ast.Str_lit prefix; Ast.Int_lit (string_of_int count) ])
          Boundary_pool.repeat_counts)
      prefixes
  | _ -> []

let p3_1 seeds =
  over_positions seeds (fun ~stmt ~origin ~ci ~ai ~call ->
      if not (small_stmt stmt) then Seq.empty
      else
        seq_of_list (literal_arg_variants stmt ci call ai p3_1_variants_of)
        |> Seq.map (fun stmt' -> case Pattern_id.P3_1 origin stmt'))

(* Wrappers for P3.2: any scalar function that accepts one argument. *)
let unary_wrappers registry =
  List.filter_map
    (fun spec ->
      match spec.Func_sig.kind with
      | Func_sig.Scalar _
        when spec.Func_sig.min_args <= 1
             && (match spec.Func_sig.max_args with
                 | Some mx -> mx >= 1
                 | None -> true)
             && spec.Func_sig.name <> "REPEAT" ->
        Some spec.Func_sig.name
      | Func_sig.Scalar _ | Func_sig.Aggregate _ -> None)
    (Registry.specs registry)

let p3_2 ~registry seeds =
  let wrappers = unary_wrappers registry in
  over_positions seeds (fun ~stmt ~origin ~ci ~ai ~call ->
      if not (small_stmt stmt) then Seq.empty
      else
        seq_of_list wrappers
        |> Seq.filter_map (fun wrapper ->
               match
                 with_arg stmt ci call ai (fun arg ->
                     if arg = Ast.Star then None
                     else Some (Ast.call wrapper [ arg ]))
               with
               | Some stmt' -> Some (case Pattern_id.P3_2 origin stmt')
               | None -> None))

let p3_3 ~registry seeds =
  let donor_calls =
    List.filter
      (fun (c : Ast.call) -> Registry.mem registry c.Ast.fname)
      (Collector.donors seeds)
  in
  over_positions seeds (fun ~stmt ~origin ~ci ~ai ~call ->
      if not (small_stmt stmt) then Seq.empty
      else
        seq_of_list donor_calls
        |> Seq.filter_map (fun donor ->
               if donor.Ast.fname = call.Ast.fname then None
               else
                 match with_arg stmt ci call ai (fun _ -> Some (Ast.Call donor)) with
                 | Some stmt' -> Some (case Pattern_id.P3_3 origin stmt')
                 | None -> None))

let generate ?telemetry ~registry ~seeds pattern =
  let cases =
    match pattern with
    | Pattern_id.P1_1 -> p1_1 ()
    | Pattern_id.P1_2 -> p1_2 seeds
    | Pattern_id.P1_3 -> p1_3 seeds
    | Pattern_id.P1_4 -> p1_4 seeds
    | Pattern_id.P2_1 -> p2_1 seeds
    | Pattern_id.P2_2 -> p2_2 seeds
    | Pattern_id.P2_3 -> p2_3 ~registry seeds
    | Pattern_id.P3_1 -> p3_1 seeds
    | Pattern_id.P3_2 -> p3_2 ~registry seeds
    | Pattern_id.P3_3 -> p3_3 ~registry seeds
  in
  match telemetry with
  | None -> cases
  | Some t ->
    Sqlfun_telemetry.Telemetry.time_seq t ~pattern:(Pattern_id.to_string pattern)
      ~stage:"generate" cases

let all_cases ~registry ~seeds =
  seq_of_list Pattern_id.all
  |> Seq.concat_map (fun p -> generate ~registry ~seeds p)

(* ----- stateful scenarios: prerequisite synthesis ----- *)

type scenario = { prereqs : Ast.stmt list; case : case }

let stateless c = { prereqs = []; case = c }

(* Synthesized table shapes use one boundary-typed column [v]; the
   table name is per-kind and fixed — safe to reuse across scenarios
   because the detector restores the post-seed storage baseline after
   every stateful scenario. *)
let col ty =
  { Ast.col_name = "v"; col_type = ty; col_not_null = false; col_default = None }

let create_tbl name ty =
  Ast.Create_table { tbl_name = name; columns = [ col ty ]; if_not_exists = false }

let insert_into name e =
  Ast.Insert { ins_table = name; ins_columns = []; rows = [ [ e ] ] }

let select_from ?where e tbl =
  let sel =
    {
      (Ast.simple_select [ Ast.Proj_expr (e, None) ]) with
      Ast.from = Some (Ast.From_table (tbl, None));
      where;
    }
  in
  Ast.Select_stmt (Ast.query_of_select sel)

let pool_literals () =
  List.filter (fun e -> e <> Ast.Star) (Boundary_pool.all ())

let nth_round l i = List.nth l (i mod List.length l)

(* Kind A — stored boundary probe: the boundary literal travels through
   the INSERT cast into a boundary-typed column, and the probe reads it
   back through a function. The 35-nines literal is parse-stage ground
   truth; 25/30-nines through a TEXT column are storage-stage ground
   truth; everything else reaches the probed function at execute stage
   with [Column] provenance. *)
let scen_stored ~registry () =
  let fns = unary_wrappers registry in
  if fns = [] then Seq.empty
  else
    let tys =
      [ Ast.T_text; Ast.T_decimal (Some (38, 10)); Ast.T_bigint; Ast.T_double ]
    in
    let lits = pool_literals () in
    seq_of_list tys
    |> Seq.concat_map (fun ty ->
           seq_of_list lits
           |> Seq.mapi (fun i lit ->
                  let probe =
                    select_from
                      (Ast.call (nth_round fns i) [ Ast.Column (None, "v") ])
                      "soft_sa"
                  in
                  {
                    prereqs = [ create_tbl "soft_sa" ty; insert_into "soft_sa" lit ];
                    case = case Pattern_id.P1_2 "scenario:stored" probe;
                  }))

(* Kind B — INSERT-position probe: the function expression sits inside
   the probe's VALUES clause, so its boundary result crosses the cast
   into the column and then the storage layer. *)
let scen_insert_position ~registry seeds =
  let donor_calls =
    List.filter
      (fun (c : Ast.call) ->
        Registry.mem registry c.Ast.fname && c.Ast.args <> [])
      (Collector.donors seeds)
  in
  let lits = pool_literals () in
  seq_of_list donor_calls
  |> Seq.concat_map (fun (donor : Ast.call) ->
         seq_of_list lits
         |> Seq.map (fun lit ->
                let args = lit :: List.tl donor.Ast.args in
                let probe =
                  insert_into "soft_sb" (Ast.Call { donor with Ast.args })
                in
                {
                  prereqs = [ create_tbl "soft_sb" Ast.T_text ];
                  case = case Pattern_id.P1_2 "scenario:insert-position" probe;
                }))

(* Kind C — WHERE-position probe: the function expression gates a scan
   of a prerequisite table. *)
let scen_where_position ~registry seeds =
  let donor_calls =
    List.filter
      (fun (c : Ast.call) ->
        Registry.mem registry c.Ast.fname && c.Ast.args <> [])
      (Collector.donors seeds)
  in
  let lits = pool_literals () in
  seq_of_list donor_calls
  |> Seq.concat_map (fun (donor : Ast.call) ->
         seq_of_list lits
         |> Seq.map (fun lit ->
                let args = lit :: List.tl donor.Ast.args in
                let probe =
                  select_from
                    ~where:(Ast.Is_null (Ast.Call { donor with Ast.args }, true))
                    (Ast.Column (None, "v"))
                    "soft_sc"
                in
                {
                  prereqs =
                    [
                      create_tbl "soft_sc" Ast.T_text;
                      insert_into "soft_sc" (Ast.str_lit "x");
                    ];
                  case = case Pattern_id.P1_2 "scenario:where-position" probe;
                }))

(* Kind D — session state: the prerequisite advances `Fn_ctx` session
   state (insert counters, sequences) and the probe reads it back
   through a wrapping function, in the P3.2 style. *)
let scen_session ~registry () =
  let fns = unary_wrappers registry in
  if fns = [] then Seq.empty
  else
    let last_id =
      if not (Registry.mem registry "LAST_INSERT_ID") then Seq.empty
      else
        seq_of_list (Boundary_pool.int_literals ())
        |> Seq.mapi (fun i lit ->
               let probe =
                 Ast.select_expr
                   (Ast.call (nth_round fns i) [ Ast.call "LAST_INSERT_ID" [] ])
               in
               {
                 prereqs =
                   [ create_tbl "soft_sd" Ast.T_bigint; insert_into "soft_sd" lit ];
                 case = case Pattern_id.P3_2 "scenario:session" probe;
               })
    in
    let sequences =
      if
        not (Registry.mem registry "NEXTVAL" && Registry.mem registry "LASTVAL")
      then Seq.empty
      else
        seq_of_list fns
        |> Seq.map (fun fn ->
               let probe =
                 Ast.select_expr
                   (Ast.call fn [ Ast.call "LASTVAL" [ Ast.str_lit "soft_seq" ] ])
               in
               {
                 prereqs =
                   [
                     Ast.select_expr
                       (Ast.call "NEXTVAL" [ Ast.str_lit "soft_seq" ]);
                   ];
                 case = case Pattern_id.P3_2 "scenario:sequence" probe;
               })
    in
    Seq.append last_id sequences

(* Kind E — extreme-typed columns: CREATE declares a decimal wider or
   deeper than any seed table, the INSERT drives a deep-scale value
   through the implicit cast, and the probe re-casts what was stored.
   Declared precision 40 is parse-stage ground truth; stored scale 18
   is storage-stage ground truth. *)
let scen_extreme_type () =
  let nines n = String.make n '9' in
  let tys = [ Ast.T_decimal (Some (40, 20)); Ast.T_decimal (Some (38, 18)) ] in
  let lits =
    [
      Ast.Dec_lit ("0." ^ nines 18);
      Ast.Dec_lit ("-0." ^ nines 18);
      Ast.Dec_lit (nines 20 ^ "." ^ nines 18);
      Ast.Int_lit (nines 35);
      Ast.Dec_lit ("0.5");
      Ast.Null;
    ]
  in
  seq_of_list tys
  |> Seq.concat_map (fun ty ->
         seq_of_list lits
         |> Seq.map (fun lit ->
                let probe =
                  select_from
                    (Ast.Cast (Ast.Column (None, "v"), Ast.T_text))
                    "soft_se"
                in
                {
                  prereqs = [ create_tbl "soft_se" ty; insert_into "soft_se" lit ];
                  case = case Pattern_id.P2_1 "scenario:extreme-type" probe;
                }))

(* Round-robin interleave so a budget-truncated prefix still samples
   every scenario kind (and therefore every occurrence stage) early. *)
let interleave (streams : 'a Seq.t list) : 'a Seq.t =
  let rec go streams () =
    let heads =
      List.filter_map
        (fun s -> match s () with Seq.Nil -> None | Seq.Cons (x, tl) -> Some (x, tl))
        streams
    in
    if heads = [] then Seq.Nil
    else
      Seq.append
        (List.to_seq (List.map fst heads))
        (go (List.map snd heads))
        ()
  in
  go streams

let generate_scenarios ?telemetry ~registry ~seeds () =
  let scenarios =
    interleave
      [
        scen_stored ~registry ();
        scen_insert_position ~registry seeds;
        scen_where_position ~registry seeds;
        scen_session ~registry ();
        scen_extreme_type ();
      ]
  in
  match telemetry with
  | None -> scenarios
  | Some t ->
    Sqlfun_telemetry.Telemetry.time_seq t ~pattern:"scenario" ~stage:"generate"
      scenarios

let count_scenario_positions scenarios =
  Seq.fold_left
    (fun acc sc -> acc + List.length (positions sc.case.stmt))
    0 scenarios

(* ----- slot-stream batches -----

   For the skeleton-sharing families (P1.1–P1.4, P2.3, P3.1) every
   case at one (seed, position) differs from its siblings only in a
   contiguous window of literal slots. A batch carries the family
   once — one skeleton statement, its full slot vector, the varying
   window — plus one small literal vector per case. Any member's full
   AST is recoverable ([batch_stmt]), and flattening a work stream back
   to cases ([work_cases]) reproduces the unbatched generator's stream
   element for element — the equivalence the property tests pin
   down. *)

type batch = {
  b_pattern : Pattern_id.t;
  b_origin : string;
  b_skeleton : Ast.stmt;  (** first member's full statement *)
  b_slots : Ast.expr array;  (** [Ast_util.fold_slots] of the skeleton *)
  b_lo : int;  (** varying window start in [b_slots] *)
  b_n : int;  (** varying window width *)
  b_vecs : Ast.expr array list;  (** one window vector per case, in order *)
}

type work = Single of scenario | Batched of batch

let batch_size b = List.length b.b_vecs
let work_size = function Single _ -> 1 | Batched b -> batch_size b

let batch_stmt b vec =
  let slots = Array.copy b.b_slots in
  Array.blit vec 0 slots b.b_lo b.b_n;
  Ast_util.subst_slots b.b_skeleton slots

let batch_case b vec =
  { stmt = batch_stmt b vec; pattern = b.b_pattern; origin = b.b_origin }

let batch_cases b = Seq.map (batch_case b) (List.to_seq b.b_vecs)

let work_cases = function
  | Single sc -> Seq.return sc.case
  | Batched b -> batch_cases b

let split_batch b k =
  let rec take_drop k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | v :: rest -> take_drop (k - 1) (v :: acc) rest
  in
  let first, rest = take_drop k [] b.b_vecs in
  ({ b with b_vecs = first }, { b with b_vecs = rest })

(* A literal no real case ever contains, used to locate one position's
   slot window: build the statement once with the sentinel spliced in,
   then find it in the slot fold by physical identity. *)
let batch_sentinel = Ast.Str_lit "\000soft-batch-sentinel\000"

(* Turn one position's variant list into work items: maximal runs of
   consecutive same-shaped variants become batches, everything else
   (subquery-carrying variants, leafless variants like [Star], shape
   changes, window mismatches) falls back to singleton cases built
   exactly as the unbatched generator would. [build] is the
   substitution the unbatched generator applies per variant; it either
   always succeeds or always fails for a given position, so probing it
   with the sentinel is sound. *)
let batched_position ~pattern ~origin ~build (variants : Ast.expr list) :
    work list =
  let mk v =
    match build v with
    | Some stmt -> Some (Single (stateless (case pattern origin stmt)))
    | None -> None
  in
  let singles vs = List.filter_map mk vs in
  match build batch_sentinel with
  | None -> []
  | Some rep ->
    let lo, _ =
      Ast_util.fold_slots
        (fun (lo, n) s ->
          ((if s == batch_sentinel then n else lo), n + 1))
        (-1, 0) rep
    in
    if lo < 0 then singles variants
    else begin
      (* [out] and [group] accumulate in reverse *)
      let flush_group members out =
        match members with
        | [] -> out
        | [ (v, _) ] -> (
          match mk v with Some w -> w :: out | None -> out)
        | (v1, leaves1) :: _ -> (
          let fallback () =
            List.rev_append (singles (List.map fst members)) out
          in
          match build v1 with
          | None -> fallback ()
          | Some skeleton ->
            let slots =
              Array.of_list
                (List.rev
                   (Ast_util.fold_slots (fun acc s -> s :: acc) [] skeleton))
            in
            let k = List.length leaves1 in
            (* the window must be exactly v1's leaves: [build] splices
               the variant subtree in by reference, so physical
               equality both checks contiguity and guards against a
               substitution that copied nodes *)
            let window_ok =
              lo + k <= Array.length slots
              && (let ok = ref true and i = ref lo in
                  List.iter
                    (fun leaf ->
                      if not (slots.(!i) == leaf) then ok := false;
                      incr i)
                    leaves1;
                  !ok)
            in
            if not window_ok then fallback ()
            else
              Batched
                {
                  b_pattern = pattern;
                  b_origin = origin;
                  b_skeleton = skeleton;
                  b_slots = slots;
                  b_lo = lo;
                  b_n = k;
                  b_vecs =
                    List.map (fun (_, ls) -> Array.of_list ls) members;
                }
              :: out)
      in
      let out = ref [] and group = ref [] and shape = ref None in
      let flush () =
        out := flush_group (List.rev !group) !out;
        group := [];
        shape := None
      in
      List.iter
        (fun v ->
          match Ast_util.expr_slots v with
          | None | Some [] ->
            flush ();
            (match mk v with Some w -> out := w :: !out | None -> ())
          | Some leaves -> (
            match !shape with
            | Some s when Ast_util.equal_skeleton_expr s v ->
              group := (v, leaves) :: !group
            | _ ->
              flush ();
              shape := Some v;
              group := [ (v, leaves) ]))
        variants;
      flush ();
      List.rev !out
    end

let p1_1_work () =
  let lits =
    List.filter (fun l -> l <> Ast.Star) (Boundary_pool.all ())
  in
  List.to_seq
    (batched_position ~pattern:Pattern_id.P1_1 ~origin:"pool"
       ~build:(fun v -> Some (Ast.select_expr v))
       lits)

let p1_2_work seeds =
  over_positions seeds (fun ~stmt ~origin ~ci ~ai ~call ->
      List.to_seq
        (batched_position ~pattern:Pattern_id.P1_2 ~origin
           ~build:(fun v -> with_arg stmt ci call ai (fun _ -> Some v))
           (Boundary_pool.all ())))

let literal_variants_work ~pattern ~guard seeds variants_of =
  over_positions seeds (fun ~stmt ~origin ~ci ~ai ~call ->
      if not (guard stmt) then Seq.empty
      else
        match List.nth_opt call.Ast.args ai with
        | None -> Seq.empty
        | Some arg -> (
          match variants_of arg with
          | [] -> Seq.empty
          | variants ->
            List.to_seq
              (batched_position ~pattern ~origin
                 ~build:(fun v -> with_arg stmt ci call ai (fun _ -> Some v))
                 variants)))

let p1_3_work seeds =
  literal_variants_work ~pattern:Pattern_id.P1_3
    ~guard:(fun _ -> true)
    seeds p1_3_variants_of

let p1_4_work seeds =
  literal_variants_work ~pattern:Pattern_id.P1_4
    ~guard:(fun _ -> true)
    seeds p1_4_variants_of

let p3_1_work seeds =
  literal_variants_work ~pattern:Pattern_id.P3_1 ~guard:small_stmt seeds
    p3_1_variants_of

let p2_3_work ~registry seeds =
  let donor_arglists = p2_3_donor_arglists seeds in
  seq_of_list seeds
  |> Seq.concat_map (fun (seed : Collector.seed) ->
         let stmt = seed.Collector.stmt in
         if not (small_stmt stmt) then Seq.empty
         else begin
           let origin = Sql_pp.stmt stmt in
           let calls = Ast_util.function_calls stmt in
           seq_of_list (List.mapi (fun ci c -> (ci, c)) calls)
           |> Seq.concat_map (fun (ci, (c : Ast.call)) ->
                  match Registry.find registry c.Ast.fname with
                  | None -> Seq.empty
                  | Some spec ->
                    List.to_seq
                      (batched_position ~pattern:Pattern_id.P2_3 ~origin
                         ~build:(fun v -> Ast_util.replace_nth_call stmt ci v)
                         (p2_3_variants_of spec c donor_arglists)))
         end)

let generate_work ?telemetry ~registry ~seeds pattern : work Seq.t =
  let works =
    match pattern with
    | Pattern_id.P1_1 -> p1_1_work ()
    | Pattern_id.P1_2 -> p1_2_work seeds
    | Pattern_id.P1_3 -> p1_3_work seeds
    | Pattern_id.P1_4 -> p1_4_work seeds
    | Pattern_id.P2_3 -> p2_3_work ~registry seeds
    | Pattern_id.P3_1 -> p3_1_work seeds
    | (Pattern_id.P2_1 | Pattern_id.P2_2 | Pattern_id.P3_2 | Pattern_id.P3_3)
      as p ->
      Seq.map (fun c -> Single (stateless c)) (generate ~registry ~seeds p)
  in
  match telemetry with
  | None -> works
  | Some t ->
    Sqlfun_telemetry.Telemetry.time_seq t
      ~pattern:(Pattern_id.to_string pattern) ~stage:"generate" works
