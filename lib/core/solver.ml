module Mq = Urs_mmq
module Metrics = Urs_obs.Metrics
module Span = Urs_obs.Span
module Ledger = Urs_obs.Ledger
module Json = Urs_obs.Json

type sim_options = { duration : float; replications : int; seed : int }

let default_sim_options = { duration = 200_000.0; replications = 5; seed = 1 }

type strategy = Exact | Approximate | Matrix_geometric | Simulation of sim_options

type performance = {
  strategy_used : strategy;
  mean_jobs : float;
  mean_response : float;
  utilization : float;
  dominant_eigenvalue : float option;
  confidence_half_width : float option;
}

type error =
  | Not_phase_type
  | Unstable of Mq.Stability.verdict
  | Solver_failure of string

let pp_error ppf = function
  | Not_phase_type ->
      Format.fprintf ppf
        "period distributions are not phase-type; use the Simulation strategy"
  | Unstable v ->
      Format.fprintf ppf "queue is unstable: %a" Mq.Stability.pp_verdict v
  | Solver_failure msg -> Format.fprintf ppf "solver failure: %s" msg

let render pp_e e = Format.asprintf "%a" pp_e e

let strategy_label = function
  | Exact -> "exact"
  | Approximate -> "approx"
  | Matrix_geometric -> "mg"
  | Simulation _ -> "sim"

(* The three QBD solvers share one shape: solve, map the solver's error,
   and read L, W and z_s off the solution together with the gauge values
   of this very solve (z_s first, then [more]) for the ledger record. *)
let analytic model verdict strategy ~solve ~error ~answer =
  match Model.qbd model with
  | None -> Error Not_phase_type
  | Some q -> (
      match solve q with
      | Error e -> Error (error e)
      | Ok sol ->
          let mean_jobs, mean_response, z, more = answer sol in
          Ok
            ( {
                strategy_used = strategy;
                mean_jobs;
                mean_response;
                utilization = verdict.Mq.Stability.utilization;
                dominant_eigenvalue = Some z;
                confidence_half_width = None;
              },
              ("urs_spectral_dominant_z", z) :: more ))

let evaluate_inner ?pool ?max_iter ?(strategy = Exact) model =
  let verdict = Model.stability model in
  if not verdict.Mq.Stability.stable then Error (Unstable verdict)
  else
    match strategy with
    | Exact ->
        analytic model verdict strategy ~solve:(Mq.Spectral.solve ?max_iter)
          ~error:(function
            | Mq.Spectral.Unstable v -> Unstable v
            | e -> Solver_failure (render Mq.Spectral.pp_error e))
          ~answer:(fun sol ->
            ( Mq.Spectral.mean_queue_length sol,
              Mq.Spectral.mean_response_time sol,
              Mq.Spectral.dominant_eigenvalue sol,
              [
                ("urs_spectral_residual", Mq.Spectral.residual sol);
                ( "urs_spectral_eigenvalues",
                  float_of_int (Array.length (Mq.Spectral.eigenvalues sol)) );
              ] ))
    | Approximate ->
        analytic model verdict strategy ~solve:Mq.Geometric.solve
          ~error:(function
            | Mq.Geometric.Unstable v -> Unstable v
            | e -> Solver_failure (render Mq.Geometric.pp_error e))
          ~answer:(fun sol ->
            ( Mq.Geometric.mean_queue_length sol,
              Mq.Geometric.mean_response_time sol,
              Mq.Geometric.dominant_eigenvalue sol,
              [] ))
    | Matrix_geometric ->
        analytic model verdict strategy ~solve:Mq.Matrix_geometric.solve
          ~error:(function
            | Mq.Matrix_geometric.Unstable v -> Unstable v
            | e -> Solver_failure (render Mq.Matrix_geometric.pp_error e))
          ~answer:(fun sol ->
            ( Mq.Matrix_geometric.mean_queue_length sol,
              Mq.Matrix_geometric.mean_response_time sol,
              Mq.Matrix_geometric.spectral_radius_estimate sol,
              [] ))
    | Simulation opts ->
        let cfg =
          {
            Urs_sim.Server_farm.servers = model.Model.servers;
            lambda = model.Model.arrival_rate;
            mu = model.Model.service_rate;
            operative = model.Model.operative;
            inoperative = model.Model.inoperative;
            repair_crews = model.Model.repair_crews;
          }
        in
        let summary =
          Urs_sim.Replicate.run ?pool ~seed:opts.seed
            ~replications:opts.replications ~duration:opts.duration cfg
        in
        Ok
          ( {
              strategy_used = strategy;
              mean_jobs = summary.Urs_sim.Replicate.mean_jobs.estimate;
              mean_response = summary.Urs_sim.Replicate.mean_response.estimate;
              utilization = verdict.Mq.Stability.utilization;
              dominant_eigenvalue = None;
              confidence_half_width =
                Some summary.Urs_sim.Replicate.mean_jobs.half_width;
            },
            [] )

let ledger_params model =
  [
    ("servers", Json.Int model.Model.servers);
    ("lambda", Json.Float model.Model.arrival_rate);
    ("mu", Json.Float model.Model.service_rate);
    ( "repair_crews",
      match model.Model.repair_crews with
      | Some k -> Json.Int k
      | None -> Json.Null );
  ]

let evaluate ?pool ?max_iter ?(strategy = Exact) model =
  let labels = [ ("strategy", strategy_label strategy) ] in
  Metrics.inc
    (Metrics.counter ~labels ~help:"Solver.evaluate calls"
       "urs_solver_calls_total");
  let t0 = Span.now () in
  let result =
    Span.with_ ~name:"urs_solver_evaluate" ~labels (fun () ->
        evaluate_inner ?pool ?max_iter ~strategy model)
  in
  let wall = Span.now () -. t0 in
  let outcome, summary, gauges =
    match result with
    | Ok (p, gauges) ->
        Metrics.inc
          (Metrics.counter ~labels ~help:"Solver.evaluate successes"
             "urs_solver_success_total");
        ( "ok",
          List.concat
            [
              [
                ("mean_jobs", Json.Float p.mean_jobs);
                ("mean_response", Json.Float p.mean_response);
                ("utilization", Json.Float p.utilization);
              ];
              (match p.dominant_eigenvalue with
              | Some z -> [ ("dominant_z", Json.Float z) ]
              | None -> []);
              (match p.confidence_half_width with
              | Some hw -> [ ("ci_half_width", Json.Float hw) ]
              | None -> []);
            ],
          gauges )
    | Error e ->
        Metrics.inc
          (Metrics.counter ~labels ~help:"Solver.evaluate failures"
             "urs_solver_failures_total");
        ("error", [ ("error", Json.String (render pp_error e)) ], [])
  in
  Ledger.record ~kind:"solver.evaluate" ~strategy:(strategy_label strategy)
    ~params:(ledger_params model) ~wall_seconds:wall ~outcome ~summary ~gauges
    ();
  Result.map fst result

let evaluate_exn ?pool ?max_iter ?strategy model =
  match evaluate ?pool ?max_iter ?strategy model with
  | Ok p -> p
  | Error e -> failwith (render pp_error e)

let strategy_name = function
  | Exact -> "exact (spectral expansion)"
  | Approximate -> "geometric approximation"
  | Matrix_geometric -> "matrix-geometric"
  | Simulation _ -> "simulation"

let pp_performance ppf p =
  Format.fprintf ppf "L=%.4f W=%.4f util=%.3f [%s]" p.mean_jobs p.mean_response
    p.utilization (strategy_name p.strategy_used);
  (match p.dominant_eigenvalue with
  | Some z -> Format.fprintf ppf " z_s=%.5f" z
  | None -> ());
  match p.confidence_half_width with
  | Some hw -> Format.fprintf ppf " ±%.4f" hw
  | None -> ()
