module D = Urs_prob.Distribution
module Metrics = Urs_obs.Metrics
module Span = Urs_obs.Span
module Ledger = Urs_obs.Ledger
module Json = Urs_obs.Json
module Pool = Urs_exec.Pool

let log_src = Logs.Src.create "urs.sweep" ~doc:"parameter sweeps"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Failed points used to vanish silently from sweep results; every drop
   is now logged with the failing parameter value and counted per sweep
   under urs_sweep_failures_total{sweep="..."}. *)

let m_points sweep =
  Metrics.counter
    ~labels:[ ("sweep", sweep) ]
    ~help:"Sweep points attempted" "urs_sweep_points_total"

let m_failures sweep =
  Metrics.counter
    ~labels:[ ("sweep", sweep) ]
    ~help:"Sweep points dropped (solver error or invalid parameter)"
    "urs_sweep_failures_total"

let drop ~sweep ~param reason =
  Metrics.inc (m_failures sweep);
  Log.warn (fun m ->
      m "%s sweep: dropping point %s: %t" sweep param reason);
  None

let eval_point ?strategy ?cache ~sweep ~param model =
  Metrics.inc (m_points sweep);
  let t0 = Span.now () in
  let result = Solve_cache.evaluate ?cache ?strategy model in
  let wall = Span.now () -. t0 in
  let outcome, fields =
    match result with
    | Ok perf ->
        ( "ok",
          [
            ("mean_jobs", Json.Float perf.Solver.mean_jobs);
            ("mean_response", Json.Float perf.Solver.mean_response);
            ("utilization", Json.Float perf.Solver.utilization);
          ] )
    | Error e ->
        ( "dropped",
          [ ("error", Json.String (Format.asprintf "%a" Solver.pp_error e)) ]
        )
  in
  Ledger.record ~kind:"sweep.point"
    ~strategy:
      (Solver.strategy_label (Option.value strategy ~default:Solver.Exact))
    ~params:(Solver.ledger_params model) ~wall_seconds:wall ~outcome
    ~summary:
      (("sweep", Json.String sweep) :: ("param", Json.String param) :: fields)
    ();
  match result with
  | Ok perf -> Some perf
  | Error e ->
      drop ~sweep ~param (fun ppf -> Solver.pp_error ppf e)

(* Every sweep is two phases: prepare each x-axis value into a model
   (cheap; parameter-validation drops happen here, sequentially, so
   their log order is stable), then evaluate the prepared points — the
   expensive, embarrassingly parallel part — on the pool when one is
   given. Results come back in input order, so the point list is
   byte-identical whatever the pool width. *)
let run_points ?strategy ?pool ?cache ~sweep points =
  let task = "sweep:" ^ sweep in
  let eval (x, param, model) =
    let r =
      match eval_point ?strategy ?cache ~sweep ~param model with
      | Some perf -> Some (x, perf)
      | None -> None
    in
    Urs_obs.Progress.tick task;
    r
  in
  Urs_obs.Progress.start ~total:(List.length points) task;
  (* one span over the whole evaluate phase: pool tasks parent onto it
     (via the captured context), so a jobs=N sweep traces as a single
     tree rooted here rather than N disconnected per-domain forests *)
  let results =
    Urs_obs.Span.with_ ~name:"urs_sweep"
      ~labels:[ ("sweep", sweep) ]
      (fun () ->
        match pool with
        | None -> List.map eval points
        | Some pool -> Pool.map pool eval points)
  in
  Urs_obs.Progress.finish task;
  List.filter_map Fun.id results

let over_servers ?strategy ?pool ?cache model ~values =
  run_points ?strategy ?pool ?cache ~sweep:"servers"
    (List.map
       (fun n -> (n, string_of_int n, Model.with_servers model n))
       values)

let over_arrival_rates ?strategy ?pool ?cache model ~values =
  run_points ?strategy ?pool ?cache ~sweep:"arrival_rates"
    (List.map
       (fun lambda ->
         ( lambda,
           Printf.sprintf "lambda=%g" lambda,
           Model.with_arrival_rate model lambda ))
       values)

let over_repair_times ?strategy ?pool ?cache model ~values =
  let points =
    List.filter_map
      (fun mean_repair ->
        let param = Printf.sprintf "mean_repair=%g" mean_repair in
        if mean_repair <= 0.0 then begin
          Metrics.inc (m_points "repair_times");
          ignore
            (drop ~sweep:"repair_times" ~param (fun ppf ->
                 Format.pp_print_string ppf
                   "mean repair time must be positive"));
          None
        end
        else
          Some
            ( mean_repair,
              param,
              Model.with_inoperative model
                (D.exponential ~rate:(1.0 /. mean_repair)) ))
      values
  in
  run_points ?strategy ?pool ?cache ~sweep:"repair_times" points

let over_operative_scv ?strategy ?pool ?cache model ~pinned_rate ~values =
  let mean = D.mean model.Model.operative in
  let points =
    List.filter_map
      (fun scv ->
        let param = Printf.sprintf "scv=%g" scv in
        let operative =
          if scv <= 0.0 then Ok (D.deterministic mean)
          else if abs_float (scv -. 1.0) < 1e-12 then
            Ok (D.exponential ~rate:(1.0 /. mean))
          else
            match
              Urs_prob.Fit.h2_of_mean_scv_pinned_rate ~mean ~scv ~pinned_rate
            with
            | Ok h2 -> Ok (D.Hyperexponential h2)
            | Error e -> Error e
        in
        match operative with
        | Error e ->
            Metrics.inc (m_points "operative_scv");
            ignore
              (drop ~sweep:"operative_scv" ~param (fun ppf ->
                   Format.fprintf ppf "H2 fit failed: %a" Urs_prob.Fit.pp_error
                     e));
            None
        | Ok operative ->
            Some (scv, param, Model.with_operative model operative))
      values
  in
  run_points ?strategy ?pool ?cache ~sweep:"operative_scv" points

let over_loads ?strategy ?pool ?cache model ~values =
  (* Figure 8's x-axis: offered load relative to the effective service
     capacity (average operative servers x mu) of the breakdown/repair
     environment *)
  let capacity =
    (Model.stability model).Urs_mmq.Stability.effective_capacity
    *. model.Model.service_rate
  in
  let points =
    List.filter_map
      (fun load ->
        let param = Printf.sprintf "load=%g" load in
        if load <= 0.0 || not (Float.is_finite capacity) || capacity <= 0.0
        then begin
          Metrics.inc (m_points "loads");
          ignore
            (drop ~sweep:"loads" ~param (fun ppf ->
                 Format.pp_print_string ppf
                   "load and effective capacity must be positive"));
          None
        end
        else
          Some
            ( load,
              param,
              Model.with_arrival_rate model (load *. capacity) ))
      values
  in
  run_points ?strategy ?pool ?cache ~sweep:"loads" points

let linspace lo hi k =
  if k < 2 then [ lo ]
  else
    List.init k (fun i ->
        lo +. ((hi -. lo) *. float_of_int i /. float_of_int (k - 1)))
