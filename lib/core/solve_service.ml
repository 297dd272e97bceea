module Http = Urs_obs.Http
module Json = Urs_obs.Json
module Span = Urs_obs.Span

(* The POST /solve route: a JSON model in, stationary metrics out.

   The request body is a single JSON object:

     {"servers": 10, "lambda": 8.0, "mu": 1.0,
      "operative": "h2:0.7246,0.1663,0.0091",
      "inoperative": "exp:25",
      "repair_crews": 2,
      "strategy": "exact",
      "sim": {"duration": 200000, "replications": 5, "seed": 1}}

   or {"scenario": "paper"} (the paper's §4 configuration), with any of
   the explicit fields overriding the scenario's defaults.
   Distributions use the CLI's compact syntax (exp:R | h2:W1,R1,R2 |
   det:V | erlang:K,R). Malformed input is the client's fault (400);
   an unstable or non-phase-type model likewise (the solver cannot
   help); a numerical solver failure is ours (500).

   Solves go through Solve_cache so repeated models are served from
   memory; the response says whether this request hit. The solver emits
   its usual metrics/ledger records, and the route handler runs inside
   the HTTP middleware, so every solve correlates with an http.access
   record through the request's trace context. *)

let scenarios =
  [
    (* §4's running configuration: N=10 unreliable servers, the fitted
       H2 operative periods, exponential repairs *)
    ( "paper",
      fun () ->
        Model.create ~servers:10 ~arrival_rate:8.0 ~service_rate:1.0
          ~operative:Model.paper_operative
          ~inoperative:Model.paper_inoperative_exp () );
    (* same with the fitted H2 inoperative periods (Figure 4) *)
    ( "paper-h2",
      fun () ->
        Model.create ~servers:10 ~arrival_rate:8.0 ~service_rate:1.0
          ~operative:Model.paper_operative
          ~inoperative:Model.paper_inoperative_h2 () );
  ]

let dist_of_string s =
  match String.split_on_char ':' (String.trim s) with
  | [ "exp"; r ] -> (
      match float_of_string_opt r with
      | Some r when r > 0.0 -> Ok (Urs_prob.Distribution.exponential ~rate:r)
      | _ -> Error "exp: needs a positive rate")
  | [ "h2"; rest ] -> (
      match List.map float_of_string_opt (String.split_on_char ',' rest) with
      | [ Some w1; Some r1; Some r2 ] when w1 >= 0.0 && w1 <= 1.0 ->
          Ok (Urs_prob.Distribution.h2 ~w1 ~r1 ~r2)
      | _ -> Error "h2: needs W1,RATE1,RATE2")
  | [ "det"; v ] -> (
      match float_of_string_opt v with
      | Some v when v > 0.0 -> Ok (Urs_prob.Distribution.deterministic v)
      | _ -> Error "det: needs a positive value")
  | [ "erlang"; rest ] -> (
      match String.split_on_char ',' rest with
      | [ k; r ] -> (
          match (int_of_string_opt k, float_of_string_opt r) with
          | Some k, Some r when k >= 1 && r > 0.0 ->
              Ok (Urs_prob.Distribution.erlang ~k ~rate:r)
          | _ -> Error "erlang: needs K,RATE")
      | _ -> Error "erlang: needs K,RATE")
  | _ -> Error (Printf.sprintf "unknown distribution %S" s)

(* request-shape helpers over the minimal Json.t *)
let to_int_opt = function
  | Json.Int i -> Some i
  | Json.Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let field name body = Json.member name body

let float_field name ~default body =
  match field name body with
  | None -> Ok default
  | Some j -> (
      match Json.to_float_opt j with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "%S must be a number" name))

let int_field name ~default body =
  match field name body with
  | None -> Ok default
  | Some j -> (
      match to_int_opt j with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "%S must be an integer" name))

let dist_field name ~default body =
  match field name body with
  | None -> Ok default
  | Some (Json.String s) -> (
      match dist_of_string s with
      | Ok d -> Ok d
      | Error msg -> Error (Printf.sprintf "%S: %s" name msg))
  | Some _ ->
      Error
        (Printf.sprintf "%S must be a distribution string (exp:R | h2:W,R1,R2 | det:V | erlang:K,R)" name)

let ( let* ) = Result.bind

let parse_strategy body =
  match field "strategy" body with
  | None -> Ok Solver.Exact
  | Some (Json.String "sim") ->
      let d = Solver.default_sim_options in
      let sim = Option.value (field "sim" body) ~default:(Json.Obj []) in
      let* duration = float_field "duration" ~default:d.Solver.duration sim in
      let* replications =
        int_field "replications" ~default:d.Solver.replications sim
      in
      let* seed = int_field "seed" ~default:d.Solver.seed sim in
      if duration <= 0.0 then Error "\"duration\" must be positive"
      else if replications < 1 then Error "\"replications\" must be >= 1"
      else Ok (Solver.Simulation { duration; replications; seed })
  | Some (Json.String s) -> (
      match Solver.strategy_of_label s with
      | Some strategy -> Ok strategy
      | None ->
          Error (Printf.sprintf "unknown strategy %S (exact|approx|mg|sim)" s))
  | Some _ -> Error "\"strategy\" must be a string"

let parse_model body =
  let* base =
    match field "scenario" body with
    | None -> Ok None
    | Some (Json.String name) -> (
        match List.assoc_opt name scenarios with
        | Some make -> Ok (Some (make ()))
        | None ->
            Error
              (Printf.sprintf "unknown scenario %S (%s)" name
                 (String.concat "|" (List.map fst scenarios))))
    | Some _ -> Error "\"scenario\" must be a string"
  in
  let dfl f v = match base with Some m -> f m | None -> v in
  let* servers = int_field "servers" ~default:(dfl (fun m -> m.Model.servers) 10) body in
  let* lambda =
    float_field "lambda" ~default:(dfl (fun m -> m.Model.arrival_rate) 8.0) body
  in
  let* mu =
    float_field "mu" ~default:(dfl (fun m -> m.Model.service_rate) 1.0) body
  in
  let* operative =
    dist_field "operative"
      ~default:(dfl (fun m -> m.Model.operative) Model.paper_operative)
      body
  in
  let* inoperative =
    dist_field "inoperative"
      ~default:(dfl (fun m -> m.Model.inoperative) Model.paper_inoperative_exp)
      body
  in
  let* repair_crews =
    match field "repair_crews" body with
    | None -> Ok (dfl (fun m -> m.Model.repair_crews) None)
    | Some Json.Null -> Ok None
    | Some j -> (
        match to_int_opt j with
        | Some k -> Ok (Some k)
        | None -> Error "\"repair_crews\" must be an integer or null")
  in
  match
    Model.create ?repair_crews ~servers ~arrival_rate:lambda ~service_rate:mu
      ~operative ~inoperative ()
  with
  | m -> Ok m
  | exception Invalid_argument msg -> Error msg

let parse_request raw =
  match Json.of_string raw with
  | Error msg -> Error (Printf.sprintf "invalid JSON: %s" msg)
  | Ok (Json.Obj _ as body) ->
      let* model = parse_model body in
      let* strategy = parse_strategy body in
      Ok (model, strategy)
  | Ok _ -> Error "request body must be a JSON object"

let opt_float name = function
  | Some v -> [ (name, Json.Float v) ]
  | None -> []

let performance_json ~mu (p : Solver.performance) =
  Json.Obj
    ([
       ("strategy", Json.String (Solver.strategy_label p.strategy_used));
       ("mean_jobs", Json.Float p.mean_jobs);
       ("mean_response", Json.Float p.mean_response);
       (* the stationary queue-wait: sojourn minus the service
          requirement — what a job spends waiting for a server *)
       ("mean_queue_wait", Json.Float (p.mean_response -. (1.0 /. mu)));
       ("utilization", Json.Float p.utilization);
     ]
    @ opt_float "dominant_eigenvalue" p.dominant_eigenvalue
    @ opt_float "ci_half_width" p.confidence_half_width)

let error_response ~status msg =
  {
    Http.status;
    content_type = "application/json";
    body = Json.to_string (Json.Obj [ ("error", Json.String msg) ]) ^ "\n";
  }

let handle ?pool ?cache ?max_iter _query ~body =
  match parse_request body with
  | Error msg -> error_response ~status:400 msg
  | Ok (model, strategy) -> (
      let t0 = Span.now () in
      let result, hit =
        match max_iter with
        (* a capped solver is a fault drill: never memoize its results
           (and never serve it a healthy cached answer) *)
        | Some _ -> (Solver.evaluate ?pool ?max_iter ~strategy model, false)
        | None -> Solve_cache.evaluate_info ?pool ?cache ~strategy model
      in
      let solve_s = Span.now () -. t0 in
      match result with
      | Ok p ->
          {
            Http.status = 200;
            content_type = "application/json";
            body =
              Json.to_string
                (Json.Obj
                   [
                     ("model", Json.Obj (Solver.ledger_params model));
                     ( "performance",
                       performance_json ~mu:model.Model.service_rate p );
                     ( "cache",
                       Json.Obj
                         [
                           ("hit", Json.Bool hit);
                           ("enabled", Json.Bool (cache <> None));
                         ] );
                     ("solve_seconds", Json.Float solve_s);
                   ])
              ^ "\n";
          }
      | Error (Solver.Solver_failure _ as e) ->
          (* a numerical failure on a stable, well-formed model is the
             service's fault — and the hook the SLO fault drill uses *)
          error_response ~status:500 (Format.asprintf "%a" Solver.pp_error e)
      | Error e ->
          error_response ~status:400 (Format.asprintf "%a" Solver.pp_error e))

let post_route ?pool ?cache ?max_iter () =
  ("/solve", fun q ~body -> handle ?pool ?cache ?max_iter q ~body)
