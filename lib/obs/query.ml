(* The ledger query engine behind `urs query`: filter -> group ->
   aggregate over every segment of a (possibly rotated) JSONL ledger,
   in one streaming pass that parses every record. Grouping keys are
   the low-cardinality record dimensions; the aggregations are the
   repo's own estimators (Welford for mean/stddev, Empirical.quantile
   for percentiles) so `urs query` answers match the test goldens
   bit-for-bit. *)

module Welford = Urs_stats.Welford
module Empirical = Urs_stats.Empirical

(* ---- vocabulary ---- *)

type key = Kind | Strategy | Outcome | Route | Trace

type field = Wall_seconds | Time | Named of string

type agg =
  | Count
  | Rate
  | Mean of field
  | Stddev of field
  | Min of field
  | Max of field
  | Quantile of float * field  (* p in (0,1) *)

type filter = {
  kind : string option;
  strategy : string option;
  outcome : string option;
  route : string option;
  trace_id : string option;
  since : float option;
  until : float option;
}

let no_filter =
  {
    kind = None;
    strategy = None;
    outcome = None;
    route = None;
    trace_id = None;
    since = None;
    until = None;
  }

let key_label = function
  | Kind -> "kind"
  | Strategy -> "strategy"
  | Outcome -> "outcome"
  | Route -> "route"
  | Trace -> "trace_id"

let parse_key s =
  match String.lowercase_ascii (String.trim s) with
  | "kind" -> Ok Kind
  | "strategy" -> Ok Strategy
  | "outcome" -> Ok Outcome
  | "route" -> Ok Route
  | "trace" | "trace_id" | "trace-id" -> Ok Trace
  | other ->
      Error
        (Printf.sprintf
           "unknown group-by key %S (kind|strategy|outcome|route|trace)" other)

let parse_group_by s =
  match String.trim s with
  | "" -> Ok []
  | s ->
      List.fold_left
        (fun acc part ->
          match (acc, parse_key part) with
          | Error _, _ -> acc
          | Ok ks, Ok k -> Ok (ks @ [ k ])
          | Ok _, (Error _ as e) -> e)
        (Ok [])
        (String.split_on_char ',' s)

let field_label = function
  | Wall_seconds -> "wall_seconds"
  | Time -> "time"
  | Named n -> n

let parse_field s =
  match String.trim s with
  | "" -> Error "empty field name"
  | "wall_seconds" -> Ok Wall_seconds
  | "time" -> Ok Time
  | n -> Ok (Named n)

(* "count" | "rate" | "mean(F)" | "stddev(F)" | "min(F)" | "max(F)"
   | "p<N>(F)" with N a percentile like 50, 99 or 99.9 *)
let parse_agg s =
  let s = String.trim s in
  let call name =
    match (String.index_opt s '(', s.[String.length s - 1]) with
    | Some i, ')' when String.sub s 0 i = name ->
        Some (String.sub s (i + 1) (String.length s - i - 2))
    | _ -> None
  in
  let with_field name mk =
    match call name with
    | None -> None
    | Some f -> Some (Result.map mk (parse_field f))
  in
  match s with
  | "" -> Error "empty aggregation"
  | "count" -> Ok Count
  | "rate" -> Ok Rate
  | _ -> (
      let known =
        List.find_map Fun.id
          [
            with_field "mean" (fun f -> Mean f);
            with_field "stddev" (fun f -> Stddev f);
            with_field "min" (fun f -> Min f);
            with_field "max" (fun f -> Max f);
          ]
      in
      match known with
      | Some r -> r
      | None -> (
          match (String.index_opt s '(', s) with
          | Some i, _
            when i > 1 && s.[0] = 'p' && s.[String.length s - 1] = ')' -> (
              let pct = String.sub s 1 (i - 1) in
              let fld = String.sub s (i + 1) (String.length s - i - 2) in
              match float_of_string_opt pct with
              | Some p when p > 0.0 && p < 100.0 ->
                  Result.map (fun f -> Quantile (p /. 100.0, f)) (parse_field fld)
              | _ ->
                  Error
                    (Printf.sprintf "bad percentile %S (want p50..p99.9)" pct))
          | _ ->
              Error
                (Printf.sprintf
                   "unknown aggregation %S \
                    (count|rate|mean(F)|stddev(F)|min(F)|max(F)|pN(F))"
                   s)))

let agg_label = function
  | Count -> "count"
  | Rate -> "rate"
  | Mean f -> Printf.sprintf "mean(%s)" (field_label f)
  | Stddev f -> Printf.sprintf "stddev(%s)" (field_label f)
  | Min f -> Printf.sprintf "min(%s)" (field_label f)
  | Max f -> Printf.sprintf "max(%s)" (field_label f)
  | Quantile (p, f) ->
      (* 0.999 prints back as p99.9, 0.5 as p50 *)
      let pct = p *. 100.0 in
      if Float.is_integer pct then
        Printf.sprintf "p%d(%s)" (int_of_float pct) (field_label f)
      else Printf.sprintf "p%g(%s)" pct (field_label f)

(* ---- record accessors ---- *)

let assoc_float n kvs = Option.bind (List.assoc_opt n kvs) Json.to_float_opt

let field_value (r : Ledger.record) = function
  | Wall_seconds -> Some r.Ledger.wall_seconds
  | Time -> Some r.Ledger.time
  | Named n -> (
      match List.assoc_opt n r.Ledger.gauges with
      | Some f -> Some f
      | None -> (
          match assoc_float n r.Ledger.summary with
          | Some f -> Some f
          | None -> assoc_float n r.Ledger.params))

let key_value (r : Ledger.record) = function
  | Kind -> r.Ledger.kind
  | Strategy -> Option.value ~default:"-" r.Ledger.strategy
  | Outcome -> r.Ledger.outcome
  | Route -> (
      match List.assoc_opt "route" r.Ledger.params with
      | Some (Json.String s) -> s
      | _ -> "-")
  | Trace -> Option.value ~default:"-" r.Ledger.trace_id

let matches flt (r : Ledger.record) =
  let eq v want = match want with None -> true | Some w -> v = w in
  eq r.Ledger.kind flt.kind
  && eq (key_value r Strategy) flt.strategy
  && eq r.Ledger.outcome flt.outcome
  && eq (key_value r Route) flt.route
  && eq (key_value r Trace) flt.trace_id
  && (match flt.since with None -> true | Some t -> r.Ledger.time >= t)
  && match flt.until with None -> true | Some t -> r.Ledger.time <= t

(* ---- execution ---- *)

type acc =
  | A_unit
  | A_welford of Welford.t
  | A_extreme of float ref  (* running min or max *)
  | A_values of float list ref  (* retained for the quantile sort *)

type group_state = {
  mutable count : int;
  mutable t_min : float;
  mutable t_max : float;
  accs : acc array;
}

let make_state aggs =
  {
    count = 0;
    t_min = infinity;
    t_max = neg_infinity;
    accs =
      Array.map
        (function
          | Count | Rate -> A_unit
          | Mean _ | Stddev _ -> A_welford (Welford.create ())
          | Min _ -> A_extreme (ref infinity)
          | Max _ -> A_extreme (ref neg_infinity)
          | Quantile _ -> A_values (ref []))
        aggs;
  }

let feed aggs st (r : Ledger.record) =
  st.count <- st.count + 1;
  st.t_min <- Float.min st.t_min r.Ledger.time;
  st.t_max <- Float.max st.t_max r.Ledger.time;
  Array.iteri
    (fun i agg ->
      let value f = field_value r f in
      match (agg, st.accs.(i)) with
      | (Count | Rate), _ -> ()
      | (Mean f | Stddev f), A_welford w ->
          Option.iter (Welford.add w) (value f)
      | Min f, A_extreme m -> Option.iter (fun v -> m := Float.min !m v) (value f)
      | Max f, A_extreme m -> Option.iter (fun v -> m := Float.max !m v) (value f)
      | Quantile (_, f), A_values vs ->
          Option.iter (fun v -> vs := v :: !vs) (value f)
      | _ -> assert false)
    aggs

let finish aggs st =
  Array.to_list
    (Array.mapi
       (fun i agg ->
         match (agg, st.accs.(i)) with
         | Count, _ -> float_of_int st.count
         | Rate, _ ->
             let span = st.t_max -. st.t_min in
             if st.count >= 2 && span > 0.0 then
               float_of_int (st.count - 1) /. span
             else nan
         | Mean _, A_welford w -> if Welford.count w > 0 then Welford.mean w else nan
         | Stddev _, A_welford w ->
             if Welford.count w > 0 then Welford.std_dev w else nan
         | (Min _ | Max _), A_extreme m ->
             if Float.is_finite !m then !m else nan
         | Quantile (p, _), A_values vs ->
             if !vs = [] then nan
             else Empirical.quantile (Array.of_list !vs) p
         | _ -> assert false)
       aggs)

type row = { group : string list; cells : float list }

type t = {
  group_columns : string list;
  columns : string list;
  rows : row list;  (* sorted by group values *)
  segments : int;
  parsed : int;  (* records parsed (before the filter) *)
  matched : int;
  malformed : int;
  elapsed_s : float;
}

(* The engine shared by [run] and [run_records]: [add] filters one
   record into its group, [result] finishes every group. *)
let engine ~filter ~group_by ~aggs =
  let aggs = if aggs = [] then [ Count ] else aggs in
  let aggs_a = Array.of_list aggs in
  let t0 = Unix.gettimeofday () in
  let groups : (string list, group_state) Hashtbl.t = Hashtbl.create 64 in
  let parsed = ref 0 in
  let matched = ref 0 in
  let add r =
    incr parsed;
    if matches filter r then begin
      incr matched;
      let g = List.map (key_value r) group_by in
      let st =
        match Hashtbl.find_opt groups g with
        | Some st -> st
        | None ->
            let st = make_state aggs_a in
            Hashtbl.add groups g st;
            st
      in
      feed aggs_a st r
    end
  in
  let result ~segments ~malformed =
    let rows =
      List.sort
        (fun a b -> compare a.group b.group)
        (Hashtbl.fold
           (fun g st acc -> { group = g; cells = finish aggs_a st } :: acc)
           groups [])
    in
    {
      group_columns = List.map key_label group_by;
      columns = List.map agg_label aggs;
      rows;
      segments;
      parsed = !parsed;
      matched = !matched;
      malformed;
      elapsed_s = Unix.gettimeofday () -. t0;
    }
  in
  (add, result)

let run ?(filter = no_filter) ?(group_by = []) ?(aggs = [ Count ]) path =
  let add, result = engine ~filter ~group_by ~aggs in
  let segments = List.length (Ledger_store.segments path) in
  Ledger.fold_path path ~init:() ~f:(fun () r -> add r)
  |> Result.map (fun ((), stats) ->
         result ~segments ~malformed:stats.Ledger.malformed)

let run_records ?(filter = no_filter) ?(group_by = []) ?(aggs = [ Count ])
    records =
  let add, result = engine ~filter ~group_by ~aggs in
  List.iter add records;
  result ~segments:0 ~malformed:0

(* ---- rendering ---- *)

let cell_str column v =
  if Float.is_nan v then "-"
  else if column = "count" then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let scan_line r =
  Printf.sprintf
    "scanned %d record(s) (%d malformed) in %d segment(s), %.3fs" r.parsed
    r.malformed r.segments r.elapsed_s

let text_table rows =
  let ncols = match rows with [] -> 0 | header :: _ -> List.length header in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i c ->
         if i < ncols then widths.(i) <- max widths.(i) (String.length c)))
    rows;
  let buf = Buffer.create 1024 in
  List.iteri
    (fun ri cells ->
      List.iteri
        (fun i c ->
          Buffer.add_string buf c;
          if i < ncols - 1 then
            Buffer.add_string buf
              (String.make (widths.(i) - String.length c + 2) ' '))
        cells;
      Buffer.add_char buf '\n';
      if ri = 0 then begin
        Array.iteri
          (fun i w ->
            Buffer.add_string buf (String.make w '-');
            if i < ncols - 1 then Buffer.add_string buf "  ")
          widths;
        Buffer.add_char buf '\n'
      end)
    rows;
  Buffer.contents buf

let render_table r =
  let header = r.group_columns @ r.columns in
  let body =
    List.map
      (fun row -> row.group @ List.map2 cell_str r.columns row.cells)
      r.rows
  in
  text_table (header :: body) ^ scan_line r ^ "\n"

let result_json r =
  Json.Obj
    [
      ("schema", Json.String "urs-query/1");
      ( "groups",
        Json.List
          (List.map
             (fun row ->
               Json.Obj
                 (List.map2
                    (fun k v -> (k, Json.String v))
                    r.group_columns row.group
                 @ List.map2
                     (fun c v ->
                       ( c,
                         if Float.is_nan v then Json.Null
                         else if c = "count" then Json.Int (int_of_float v)
                         else Json.Float v ))
                     r.columns row.cells))
             r.rows) );
      ("segments", Json.Int r.segments);
      ("parsed", Json.Int r.parsed);
      ("matched", Json.Int r.matched);
      ("malformed", Json.Int r.malformed);
      ("elapsed_s", Json.Float r.elapsed_s);
    ]

let render_json r = Json.to_string (result_json r)

(* gnuplot-ready: comment header naming the columns, one
   space-separated row per group (group values first). See the README
   "Querying the ledger" for a plot recipe. *)
let render_data r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("# " ^ scan_line r ^ "\n");
  Buffer.add_string buf
    ("# " ^ String.concat " " (r.group_columns @ r.columns) ^ "\n");
  List.iter
    (fun row ->
      Buffer.add_string buf
        (String.concat " "
           (row.group
           @ List.map2
               (fun c v ->
                 if Float.is_nan v then "nan" else cell_str c v)
               r.columns row.cells));
      Buffer.add_char buf '\n')
    r.rows;
  Buffer.contents buf
