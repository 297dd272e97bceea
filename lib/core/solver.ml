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

let strategy_of_label = function
  | "exact" -> Some Exact
  | "approx" -> Some Approximate
  | "mg" -> Some Matrix_geometric
  | "sim" -> Some (Simulation default_sim_options)
  | _ -> None

(* The last-solve gauges (last-write semantics, see Metrics.mli), by
   strategy label and name. [evaluate] sets them from its record's
   [gauges], the values of its own solve. *)
let last_solve_gauges =
  List.map
    (fun (strategy, name, help) ->
      ( (strategy, name),
        Metrics.gauge ~labels:[ ("strategy", strategy) ] ~help name ))
    [
      ( "exact",
        "urs_spectral_eigenvalues",
        "Eigenvalues found inside the unit disk (last solve)" );
      ( "exact",
        "urs_spectral_dominant_z",
        "Dominant eigenvalue z_s (last successful solve)" );
      ( "exact",
        "urs_spectral_residual",
        "A-posteriori balance/normalization residual (last successful solve)"
      );
      ( "approx",
        "urs_spectral_dominant_z",
        "Dominant eigenvalue z_s of the last solve (last write)" );
      ( "mg",
        "urs_spectral_dominant_z",
        "Spectral radius of R from the last solve (last write)" );
    ]

(* What a solve adds to its evaluate record besides the performance:
   the QBD's mode count among the parameters, the solver's own summary
   fields and the gauge values of this very solve. *)
type solved = {
  params : (string * Json.t) list;
  fields : (string * Json.t) list;
  gauges : (string * float) list;
}

let nothing_solved = { params = []; fields = []; gauges = [] }

(* The three QBD solvers share one shape: solve, map the solver's error,
   and read L, W, z_s, the solver's fields and further gauge values off
   the solution. [solve] also returns the fields a solve reports
   whether or not it succeeds. *)
let analytic model verdict strategy ~solve ~error ~answer =
  match Model.qbd model with
  | None -> (Error Not_phase_type, nothing_solved)
  | Some q -> (
      let params = [ ("modes", Json.Int (Mq.Qbd.s q)) ] in
      match solve q with
      | Error e, always ->
          (Error (error e), { params; fields = always; gauges = [] })
      | Ok sol, always ->
          let mean_jobs, mean_response, z, fields, gauges = answer sol in
          ( Ok
              {
                strategy_used = strategy;
                mean_jobs;
                mean_response;
                utilization = verdict.Mq.Stability.utilization;
                dominant_eigenvalue = Some z;
                confidence_half_width = None;
              },
            {
              params;
              fields = fields @ always;
              gauges = ("urs_spectral_dominant_z", z) :: gauges;
            } ))

(* which eigenvalue path ran, and why the definite one did not *)
let path_fields = function
  | None -> []
  | Some Mq.Spectral.Definite -> [ ("eig_path", Json.String "definite") ]
  | Some (Mq.Spectral.Companion why) ->
      [
        ("eig_path", Json.String "companion");
        ("eig_fallback", Json.String (Mq.Spectral.fallback_name why));
      ]

let evaluate_inner ?pool ?max_iter ?(strategy = Exact) model =
  let verdict = Model.stability model in
  if not verdict.Mq.Stability.stable then
    (Error (Unstable verdict), nothing_solved)
  else
    match strategy with
    | Exact ->
        analytic model verdict strategy
          ~solve:(fun q ->
            let result, path = Mq.Spectral.solve_with_path ?max_iter q in
            (result, path_fields path))
          ~error:(function
            | Mq.Spectral.Unstable v -> Unstable v
            | e -> Solver_failure (render Mq.Spectral.pp_error e))
          ~answer:(fun sol ->
            let eigenvalues = Array.length (Mq.Spectral.eigenvalues sol) in
            let residual = Mq.Spectral.residual sol in
            ( Mq.Spectral.mean_queue_length sol,
              Mq.Spectral.mean_response_time sol,
              Mq.Spectral.dominant_eigenvalue sol,
              [
                ("eigenvalues", Json.Int eigenvalues);
                ("residual", Json.Float residual);
                ( "boundary_condition",
                  Json.Float (Mq.Spectral.boundary_condition sol) );
              ],
              [
                ("urs_spectral_residual", residual);
                ("urs_spectral_eigenvalues", float_of_int eigenvalues);
              ] ))
    | Approximate ->
        analytic model verdict strategy
          ~solve:(fun q -> (Mq.Geometric.solve q, []))
          ~error:(function
            | Mq.Geometric.Unstable v -> Unstable v
            | e -> Solver_failure (render Mq.Geometric.pp_error e))
          ~answer:(fun sol ->
            ( Mq.Geometric.mean_queue_length sol,
              Mq.Geometric.mean_response_time sol,
              Mq.Geometric.dominant_eigenvalue sol,
              [],
              [] ))
    | Matrix_geometric ->
        analytic model verdict strategy
          ~solve:(fun q -> (Mq.Matrix_geometric.solve q, []))
          ~error:(function
            | Mq.Matrix_geometric.Unstable v -> Unstable v
            | e -> Solver_failure (render Mq.Matrix_geometric.pp_error e))
          ~answer:(fun sol ->
            let rho = Mq.Matrix_geometric.spectral_radius_estimate sol in
            ( Mq.Matrix_geometric.mean_queue_length sol,
              Mq.Matrix_geometric.mean_response_time sol,
              rho,
              [
                ("spectral_radius", Json.Float rho);
                ( "r_iterations",
                  Json.Int (Mq.Matrix_geometric.r_iterations sol) );
              ],
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
        ( Ok
            {
              strategy_used = strategy;
              mean_jobs = summary.Urs_sim.Replicate.mean_jobs.estimate;
              mean_response = summary.Urs_sim.Replicate.mean_response.estimate;
              utilization = verdict.Mq.Stability.utilization;
              dominant_eigenvalue = None;
              confidence_half_width =
                Some summary.Urs_sim.Replicate.mean_jobs.half_width;
            },
          nothing_solved )

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
  let label = strategy_label strategy in
  let labels = [ ("strategy", label) ] in
  Metrics.inc
    (Metrics.counter ~labels ~help:"Solver.evaluate calls"
       "urs_solver_calls_total");
  let t0 = Span.now () in
  let result, solved =
    Span.with_ ~name:"urs_solver_evaluate" ~labels (fun () ->
        evaluate_inner ?pool ?max_iter ~strategy model)
  in
  let wall = Span.now () -. t0 in
  let outcome, summary =
    match result with
    | Ok p ->
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
              solved.fields;
            ] )
    | Error e ->
        Metrics.inc
          (Metrics.counter ~labels ~help:"Solver.evaluate failures"
             "urs_solver_failures_total");
        ("error", ("error", Json.String (render pp_error e)) :: solved.fields)
  in
  List.iter
    (fun (name, v) ->
      Metrics.set (List.assoc (label, name) last_solve_gauges) v)
    solved.gauges;
  Ledger.record ~kind:"solver.evaluate" ~strategy:label
    ~params:(ledger_params model @ solved.params)
    ~wall_seconds:wall ~outcome ~summary ~gauges:solved.gauges ();
  result

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
