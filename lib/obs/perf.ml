(* Perf history: schema-versioned bench summaries appended to a
   committed JSONL file (BENCH_history.jsonl), plus the trend analysis
   behind `urs report`.

   Schema "urs-perf/1" — one object per line:
     {"schema":"urs-perf/1",
      "time": <unix seconds>,
      "git_rev": "<short rev or unknown>",
      "ocaml": "<Sys.ocaml_version>",
      "jobs": <pool width the bench ran with>,
      "sections": {"<bench section>": <wall seconds>, ...},
      "solvers": {"<solver>": {"seconds": <per-solve wall>,
                               "minor_words": <per-solve minor alloc>,
                               "promoted_words": ...,
                               "major_words": ...}, ...}}
   Unknown extra fields are ignored on read so the schema can grow
   backward-compatibly; a bumped "schema" tag is rejected. *)

let schema = "urs-perf/1"

type solver_stat = {
  seconds : float;  (* wall seconds per solve *)
  minor_words : float;  (* minor-heap words allocated per solve *)
  promoted_words : float;
  major_words : float;
}

type entry = {
  time : float;
  git_rev : string;
  ocaml : string;
  jobs : int;
  sections : (string * float) list;  (* section name -> wall seconds *)
  solvers : (string * solver_stat) list;
}

let entry_to_json e =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("time", Json.Float e.time);
      ("git_rev", Json.String e.git_rev);
      ("ocaml", Json.String e.ocaml);
      ("jobs", Json.Int e.jobs);
      ( "sections",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) e.sections) );
      ( "solvers",
        Json.Obj
          (List.map
             (fun (k, s) ->
               ( k,
                 Json.Obj
                   [
                     ("seconds", Json.Float s.seconds);
                     ("minor_words", Json.Float s.minor_words);
                     ("promoted_words", Json.Float s.promoted_words);
                     ("major_words", Json.Float s.major_words);
                   ] ))
             e.solvers) );
    ]

let float_field name j =
  match Json.member name j with
  | Some v -> Json.to_float_opt v
  | None -> None

let entry_of_json j =
  let ( let* ) r f = Result.bind r f in
  let req name extract =
    match extract (Json.member name j) with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or invalid %S field" name)
  in
  let* () =
    match Json.member "schema" j with
    | Some (Json.String s) when s = schema -> Ok ()
    | Some (Json.String s) -> Error (Printf.sprintf "unknown schema %S" s)
    | _ -> Error "missing \"schema\" field"
  in
  let* time = req "time" (fun o -> Option.bind o Json.to_float_opt) in
  let* git_rev = req "git_rev" (fun o -> Option.bind o Json.to_string_opt) in
  let* ocaml = req "ocaml" (fun o -> Option.bind o Json.to_string_opt) in
  let* jobs =
    req "jobs" (function Some (Json.Int n) -> Some n | _ -> None)
  in
  let* sections =
    match Json.member "sections" j with
    | Some (Json.Obj kvs) ->
        Ok
          (List.filter_map
             (fun (k, v) ->
               Option.map (fun f -> (k, f)) (Json.to_float_opt v))
             kvs)
    | _ -> Error "missing \"sections\" object"
  in
  let* solvers =
    match Json.member "solvers" j with
    | Some (Json.Obj kvs) ->
        Ok
          (List.filter_map
             (fun (k, v) ->
               match
                 ( float_field "seconds" v,
                   float_field "minor_words" v,
                   float_field "promoted_words" v,
                   float_field "major_words" v )
               with
               | Some seconds, Some minor_words, Some promoted_words,
                 Some major_words ->
                   Some
                     (k, { seconds; minor_words; promoted_words; major_words })
               | _ -> None)
             kvs)
    | _ -> Error "missing \"solvers\" object"
  in
  Ok { time; git_rev; ocaml; jobs; sections; solvers }

let append path e =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Json.to_channel oc (entry_to_json e))

let read_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go acc lineno =
            match input_line ic with
            | exception End_of_file -> Ok (List.rev acc)
            | "" -> go acc (lineno + 1)
            | line -> (
                match Json.of_string line with
                | Error msg ->
                    Error (Printf.sprintf "%s:%d: %s" path lineno msg)
                | Ok j -> (
                    match entry_of_json j with
                    | Error msg ->
                        Error (Printf.sprintf "%s:%d: %s" path lineno msg)
                    | Ok e -> go (e :: acc) (lineno + 1)))
          in
          go [] 1)

let git_rev () =
  (* best-effort; the bench must work in an exported tarball too *)
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ | (exception _) -> "unknown")

(* ------------------------------------------------------------------ *)
(* Trend analysis. *)

type trend = {
  solver : string;
  runs : (float * solver_stat) list;  (* (entry time, stat), input order *)
  best_seconds : float;
  latest_seconds : float;
  ratio : float;  (* latest_seconds /. best_seconds *)
  latest_minor_words : float;
  gated : bool;  (* counted towards the exit-1 breach decision *)
  breach : bool;  (* gated && ratio > max_ratio *)
}

type report = {
  entries : int;
  max_ratio : float;
  trends : trend list;  (* sorted by solver name *)
  section_runs : (string * float list) list;  (* wall times, input order *)
  breaches : string list;  (* solvers in breach *)
}

let default_gate = [ "spectral"; "sim"; "sim_probe" ]

let analyze ?(max_ratio = 2.0) ?(gate = default_gate) entries =
  let solver_names =
    List.sort_uniq String.compare
      (List.concat_map (fun e -> List.map fst e.solvers) entries)
  in
  let trends =
    List.map
      (fun name ->
        let runs =
          List.filter_map
            (fun e ->
              Option.map (fun s -> (e.time, s)) (List.assoc_opt name e.solvers))
            entries
        in
        let seconds = List.map (fun (_, s) -> s.seconds) runs in
        let best_seconds = List.fold_left min infinity seconds in
        let latest_seconds, latest_minor_words =
          match List.rev runs with
          | (_, s) :: _ -> (s.seconds, s.minor_words)
          | [] -> (nan, nan)
        in
        let ratio =
          if best_seconds > 0.0 && Float.is_finite best_seconds then
            latest_seconds /. best_seconds
          else 1.0
        in
        let gated = List.mem name gate in
        {
          solver = name;
          runs;
          best_seconds;
          latest_seconds;
          ratio;
          latest_minor_words;
          gated;
          breach = gated && Float.is_finite ratio && ratio > max_ratio;
        })
      solver_names
  in
  let section_names =
    List.sort_uniq String.compare
      (List.concat_map (fun e -> List.map fst e.sections) entries)
  in
  let section_runs =
    List.map
      (fun name ->
        (name, List.filter_map (fun e -> List.assoc_opt name e.sections) entries))
      section_names
  in
  {
    entries = List.length entries;
    max_ratio;
    trends;
    section_runs;
    breaches =
      List.filter_map
        (fun t -> if t.breach then Some t.solver else None)
        trends;
  }

(* ------------------------------------------------------------------ *)
(* Change-point scan: a CUSUM pass over each solver's per-run wall
   times (in log space — a regression is a multiplicative step), so
   `urs report --detect` can tell an abrupt level shift, and the commit
   it arrived with, from ambient noise. *)

type drift = {
  d_solver : string;
  d_gated : bool;  (* counted towards the --detect exit-1 decision *)
  d_change : Urs_stats.Changepoint.change;
  d_ratio : float;  (* exp of the log-space shift: the step factor *)
  d_git_rev : string;  (* revision of the first post-change entry *)
  d_time : float;  (* time of that entry *)
  d_runs : int;  (* series length the detector saw *)
}

let detect_drift ?(gate = default_gate) ?threshold ?drift ?warmup entries =
  let solver_names =
    List.sort_uniq String.compare
      (List.concat_map (fun e -> List.map fst e.solvers) entries)
  in
  List.filter_map
    (fun name ->
      let runs =
        List.filter_map
          (fun e ->
            Option.map (fun s -> (e, s.seconds)) (List.assoc_opt name e.solvers))
          entries
      in
      let xs =
        Array.of_list
          (List.map (fun (_, s) -> if s > 0.0 then log s else nan) runs)
      in
      match Urs_stats.Changepoint.detect ?threshold ?drift ?warmup xs with
      | None -> None
      | Some c ->
          let e, _ = List.nth runs c.Urs_stats.Changepoint.start in
          Some
            {
              d_solver = name;
              d_gated = List.mem name gate;
              d_change = c;
              d_ratio = exp c.Urs_stats.Changepoint.shift;
              d_git_rev = e.git_rev;
              d_time = e.time;
              d_runs = List.length runs;
            })
    solver_names

let drift_regressions drifts =
  List.filter
    (fun d ->
      d.d_gated && d.d_change.Urs_stats.Changepoint.direction = Urs_stats.Changepoint.Up)
    drifts

let render_drifts ~solvers drifts =
  let buf = Buffer.create 256 in
  (match drifts with
  | [] ->
      Buffer.add_string buf
        (Printf.sprintf
           "change-points: none detected across %d solver series\n" solvers)
  | ds ->
      Buffer.add_string buf "change-points (CUSUM over log wall times):\n";
      List.iter
        (fun d ->
          let c = d.d_change in
          Buffer.add_string buf
            (Printf.sprintf
               "  %-10s %.2fx step %s at run %d/%d (rev %s), detected at run \
                %d, stat %.1f%s\n"
               d.d_solver d.d_ratio
               (match c.Urs_stats.Changepoint.direction with
               | Urs_stats.Changepoint.Up -> "UP"
               | Urs_stats.Changepoint.Down -> "down")
               (c.Urs_stats.Changepoint.start + 1)
               d.d_runs d.d_git_rev
               (c.Urs_stats.Changepoint.detected + 1)
               c.Urs_stats.Changepoint.statistic
               (if d.d_gated then " [gated]" else "")))
        ds);
  Buffer.contents buf

let drifts_json drifts =
  Json.List
    (List.map
       (fun d ->
         let c = d.d_change in
         Json.Obj
           [
             ("solver", Json.String d.d_solver);
             ("gated", Json.Bool d.d_gated);
             ( "direction",
               Json.String
                 (match c.Urs_stats.Changepoint.direction with
                 | Urs_stats.Changepoint.Up -> "up"
                 | Urs_stats.Changepoint.Down -> "down") );
             ("ratio", Json.Float d.d_ratio);
             ("start_run", Json.Int c.Urs_stats.Changepoint.start);
             ("detected_run", Json.Int c.Urs_stats.Changepoint.detected);
             ("statistic", Json.Float c.Urs_stats.Changepoint.statistic);
             ("git_rev", Json.String d.d_git_rev);
             ("time", Json.Float d.d_time);
             ("runs", Json.Int d.d_runs);
           ])
       drifts)

(* ------------------------------------------------------------------ *)
(* Rendering. *)

let si_words w =
  if Float.abs w >= 1e9 then Printf.sprintf "%.2fGw" (w /. 1e9)
  else if Float.abs w >= 1e6 then Printf.sprintf "%.2fMw" (w /. 1e6)
  else if Float.abs w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

let si_seconds s =
  if Float.is_nan s then "-"
  else if s >= 1.0 then Printf.sprintf "%.3fs" s
  else if s >= 1e-3 then Printf.sprintf "%.3fms" (s *. 1e3)
  else Printf.sprintf "%.1fus" (s *. 1e6)

let trend_cells t =
  let spark =
    String.concat " "
      (List.map (fun (_, s) -> si_seconds s.seconds) t.runs)
  in
  let alloc_spark =
    String.concat " " (List.map (fun (_, s) -> si_words s.minor_words) t.runs)
  in
  [
    t.solver;
    string_of_int (List.length t.runs);
    si_seconds t.best_seconds;
    si_seconds t.latest_seconds;
    (if Float.is_nan t.ratio then "-" else Printf.sprintf "%.2fx" t.ratio);
    si_words t.latest_minor_words;
    (if t.breach then "BREACH" else if t.gated then "ok" else "-");
    spark;
    alloc_spark;
  ]

let header_cells =
  [
    "solver"; "runs"; "best"; "latest"; "ratio"; "alloc/solve"; "gate";
    "trend (s)"; "trend (alloc)";
  ]

let render_table r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "perf report: %d entries, gate ratio %.2fx\n" r.entries
       r.max_ratio);
  Buffer.add_string buf
    (Query.text_table (header_cells :: List.map trend_cells r.trends));
  if r.section_runs <> [] then begin
    Buffer.add_string buf "\nsections (wall seconds per run):\n";
    List.iter
      (fun (name, xs) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-12s %s\n" name
             (String.concat " " (List.map si_seconds xs))))
      r.section_runs
  end;
  (match r.breaches with
  | [] -> ()
  | bs ->
      Buffer.add_string buf
        (Printf.sprintf "\nBREACH: %s regressed more than %.2fx vs best-known\n"
           (String.concat ", " bs) r.max_ratio));
  Buffer.contents buf

let render_markdown r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "## Perf report (%d entries, gate %.2fx)\n\n" r.entries
       r.max_ratio);
  Buffer.add_string buf ("| " ^ String.concat " | " header_cells ^ " |\n");
  Buffer.add_string buf
    ("|" ^ String.concat "|" (List.map (fun _ -> "---") header_cells) ^ "|\n");
  List.iter
    (fun t ->
      Buffer.add_string buf ("| " ^ String.concat " | " (trend_cells t) ^ " |\n"))
    r.trends;
  (match r.breaches with
  | [] -> ()
  | bs ->
      Buffer.add_string buf
        (Printf.sprintf "\n**BREACH**: %s regressed more than %.2fx.\n"
           (String.concat ", " bs) r.max_ratio));
  Buffer.contents buf

let report_json r =
  Json.Obj
    [
      ("schema", Json.String "urs-report/1");
      ("entries", Json.Int r.entries);
      ("max_ratio", Json.Float r.max_ratio);
      ( "solvers",
        Json.Obj
          (List.map
             (fun t ->
               ( t.solver,
                 Json.Obj
                   [
                     ("runs", Json.Int (List.length t.runs));
                     ("best_seconds", Json.Float t.best_seconds);
                     ("latest_seconds", Json.Float t.latest_seconds);
                     ("ratio", Json.Float t.ratio);
                     ("latest_minor_words", Json.Float t.latest_minor_words);
                     ("gated", Json.Bool t.gated);
                     ("breach", Json.Bool t.breach);
                     ( "seconds",
                       Json.List
                         (List.map
                            (fun (_, s) -> Json.Float s.seconds)
                            t.runs) );
                     ( "minor_words",
                       Json.List
                         (List.map
                            (fun (_, s) -> Json.Float s.minor_words)
                            t.runs) );
                   ] ))
             r.trends) );
      ( "sections",
        Json.Obj
          (List.map
             (fun (name, xs) ->
               (name, Json.List (List.map (fun x -> Json.Float x) xs)))
             r.section_runs) );
      ("breaches", Json.List (List.map (fun s -> Json.String s) r.breaches));
    ]

let render_json r = Json.to_string (report_json r)

(* gnuplot-ready: one index per solver (separated by two blank lines),
   columns: run ordinal, unix time, seconds per solve, minor words per
   solve. See README "Profiling" for the plot recipe. *)
let render_data r =
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_string buf "\n\n";
      Buffer.add_string buf (Printf.sprintf "# solver: %s\n" t.solver);
      Buffer.add_string buf "# run time seconds minor_words\n";
      List.iteri
        (fun j (time, s) ->
          Buffer.add_string buf
            (Printf.sprintf "%d %s %s %s\n" j (Json.float_str time)
               (Json.float_str s.seconds)
               (Json.float_str s.minor_words)))
        t.runs)
    r.trends;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Ledger digest: per-kind record counts and wall time, so `urs report
   --ledger` can fold a run journal into the same report. *)

let ledger_digest (records : Ledger.record list) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (r : Ledger.record) ->
      let count, total =
        Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl r.Ledger.kind)
      in
      Hashtbl.replace tbl r.Ledger.kind (count + 1, total +. r.Ledger.wall_seconds))
    records;
  List.sort
    (fun (a, _, _) (b, _, _) -> String.compare a b)
    (Hashtbl.fold (fun k (c, t) acc -> (k, c, t) :: acc) tbl [])

let render_ledger_digest digest =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "ledger (records, total wall seconds by kind):\n";
  List.iter
    (fun (kind, count, total) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-20s %6d  %s\n" kind count (si_seconds total)))
    digest;
  Buffer.contents buf
