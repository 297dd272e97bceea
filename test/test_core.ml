(* Tests for the public API: Model, Solver, Cost, Capacity and Sweep —
   including the headline reproduction checks (Figure 5 optima at small
   scale, Figure 9 capacity answer, strategy agreement). *)

let check_float ?(tol = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let check_contains msg hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  if not (nn = 0 || go 0) then
    Alcotest.failf "%s: %S not found in %S" msg needle hay

let paper_model ~servers ~lambda =
  Urs.Model.create ~servers ~arrival_rate:lambda ~service_rate:1.0
    ~operative:Urs.Model.paper_operative
    ~inoperative:Urs.Model.paper_inoperative_exp ()

(* ---- Model ---- *)

let test_model_validation () =
  Alcotest.check_raises "servers" (Invalid_argument "Model.create: servers must be >= 1")
    (fun () -> ignore (paper_model ~servers:0 ~lambda:1.0));
  Alcotest.check_raises "rate" (Invalid_argument "Model.create: arrival_rate positive")
    (fun () -> ignore (paper_model ~servers:1 ~lambda:(-1.0)))

let test_model_paper_distributions () =
  check_float ~tol:0.01 "operative mean" 34.62
    (Urs_prob.Distribution.mean Urs.Model.paper_operative);
  check_float ~tol:0.05 "operative scv" 4.59
    (Urs_prob.Distribution.scv Urs.Model.paper_operative);
  check_float ~tol:1e-3 "inoperative h2 mean" 0.0797
    (Urs_prob.Distribution.mean Urs.Model.paper_inoperative_h2);
  check_float ~tol:1e-9 "inoperative exp mean" 0.04
    (Urs_prob.Distribution.mean Urs.Model.paper_inoperative_exp)

let test_model_phase_type_detection () =
  let m = paper_model ~servers:2 ~lambda:1.0 in
  Alcotest.(check bool) "phase type" true (Urs.Model.is_phase_type m);
  Alcotest.(check bool) "has environment" true
    (Option.is_some (Urs.Model.environment m));
  let det =
    Urs.Model.create ~servers:2 ~arrival_rate:1.0 ~service_rate:1.0
      ~operative:(Urs_prob.Distribution.deterministic 30.0)
      ~inoperative:Urs.Model.paper_inoperative_exp ()
  in
  Alcotest.(check bool) "deterministic not phase type" false
    (Urs.Model.is_phase_type det);
  (* stability is still computable from the means *)
  Alcotest.(check bool) "stability distribution-free" true
    (Urs.Model.stability det).Urs_mmq.Stability.stable

let test_model_with_servers () =
  let m = paper_model ~servers:3 ~lambda:1.0 in
  let m2 = Urs.Model.with_servers m 7 in
  Alcotest.(check int) "servers changed" 7 m2.Urs.Model.servers;
  check_float "rate unchanged" 1.0 m2.Urs.Model.arrival_rate

(* ---- Solver ---- *)

let test_solver_strategies_agree () =
  let m = paper_model ~servers:5 ~lambda:4.0 in
  let exact = Urs.Solver.evaluate_exn m in
  let mg = Urs.Solver.evaluate_exn ~strategy:Urs.Solver.Matrix_geometric m in
  check_float ~tol:1e-6 "exact = matrix-geometric" exact.Urs.Solver.mean_jobs
    mg.Urs.Solver.mean_jobs;
  let sim_opts = { Urs.Solver.duration = 80_000.0; replications = 4; seed = 3 } in
  let sim = Urs.Solver.evaluate_exn ~strategy:(Urs.Solver.Simulation sim_opts) m in
  let hw = Option.value ~default:0.0 sim.Urs.Solver.confidence_half_width in
  if
    abs_float (sim.Urs.Solver.mean_jobs -. exact.Urs.Solver.mean_jobs)
    > Float.max (4.0 *. hw) (0.05 *. exact.Urs.Solver.mean_jobs)
  then
    Alcotest.failf "simulation %.4f±%.4f disagrees with exact %.4f"
      sim.Urs.Solver.mean_jobs hw exact.Urs.Solver.mean_jobs

let test_solver_little_law () =
  let m = paper_model ~servers:5 ~lambda:4.0 in
  let p = Urs.Solver.evaluate_exn m in
  check_float ~tol:1e-12 "W = L/λ" (p.Urs.Solver.mean_jobs /. 4.0)
    p.Urs.Solver.mean_response

let test_solver_strategy_labels () =
  let open Urs.Solver in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (strategy_label s ^ " round-trips")
        true
        (strategy_of_label (strategy_label s) = Some s))
    [ Exact; Approximate; Matrix_geometric; Simulation default_sim_options ];
  Alcotest.(check bool) "unknown label" true (strategy_of_label "magic" = None)

let test_solver_unstable_error () =
  let m = paper_model ~servers:2 ~lambda:5.0 in
  match Urs.Solver.evaluate m with
  | Error (Urs.Solver.Unstable _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Urs.Solver.pp_error e
  | Ok _ -> Alcotest.fail "expected instability"

let test_solver_non_phase_type_needs_simulation () =
  let det =
    Urs.Model.create ~servers:3 ~arrival_rate:1.0 ~service_rate:1.0
      ~operative:(Urs_prob.Distribution.deterministic 30.0)
      ~inoperative:(Urs_prob.Distribution.exponential ~rate:2.0) ()
  in
  (match Urs.Solver.evaluate det with
  | Error Urs.Solver.Not_phase_type -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Urs.Solver.pp_error e
  | Ok _ -> Alcotest.fail "exact solver must refuse non-phase-type");
  let sim_opts = { Urs.Solver.duration = 20_000.0; replications = 2; seed = 5 } in
  match Urs.Solver.evaluate ~strategy:(Urs.Solver.Simulation sim_opts) det with
  | Ok p -> Alcotest.(check bool) "positive L" true (p.Urs.Solver.mean_jobs > 0.0)
  | Error e -> Alcotest.failf "simulation failed: %a" Urs.Solver.pp_error e

let test_solver_approximate_underestimates_moderate_load () =
  (* at util ~0.8 the geometric approximation gives a smaller L than the
     exact solution for this model (cf. Figure 8's left edge) *)
  let m = paper_model ~servers:10 ~lambda:8.0 in
  let exact = Urs.Solver.evaluate_exn m in
  let approx = Urs.Solver.evaluate_exn ~strategy:Urs.Solver.Approximate m in
  Alcotest.(check bool) "approx < exact here" true
    (approx.Urs.Solver.mean_jobs < exact.Urs.Solver.mean_jobs);
  (* both agree on the dominant eigenvalue *)
  match (exact.Urs.Solver.dominant_eigenvalue, approx.Urs.Solver.dominant_eigenvalue) with
  | Some a, Some b -> check_float ~tol:1e-6 "z_s" a b
  | _ -> Alcotest.fail "missing eigenvalues"

(* ---- Cost (Figure 5) ---- *)

let test_cost_formula () =
  let perf =
    {
      Urs.Solver.strategy_used = Urs.Solver.Exact;
      mean_jobs = 3.0;
      mean_response = 1.0;
      utilization = 0.5;
      dominant_eigenvalue = None;
      confidence_half_width = None;
    }
  in
  check_float "C = c1 L + c2 N" 17.0
    (Urs.Cost.of_performance Urs.Cost.paper_params ~servers:5 perf)

let test_cost_optimum_small () =
  (* scaled-down Figure 5: λ = 4, the optimum must be interior and the
     cost curve convex around it *)
  let m = paper_model ~servers:5 ~lambda:4.0 in
  match Urs.Cost.optimal_servers ~n_max:20 m Urs.Cost.paper_params with
  | Error e -> Alcotest.failf "optimization failed: %a" Urs.Solver.pp_error e
  | Ok (n_star, c_star) ->
      let costs = Urs.Cost.evaluate_range m Urs.Cost.paper_params
          ~n_min:(max 1 (n_star - 1)) ~n_max:(n_star + 2) in
      List.iter
        (fun (n, c) ->
          if n <> n_star && c < c_star -. 1e-9 then
            Alcotest.failf "N=%d has lower cost than the claimed optimum" n)
        costs

let test_cost_unstable_range_empty () =
  let m = paper_model ~servers:2 ~lambda:10.0 in
  let costs = Urs.Cost.evaluate_range m Urs.Cost.paper_params ~n_min:2 ~n_max:9 in
  Alcotest.(check int) "no stable point" 0 (List.length costs)

(* ---- Capacity (Figure 9) ---- *)

let test_capacity_monotone_and_minimal () =
  let m = paper_model ~servers:8 ~lambda:5.0 in
  let prof = Urs.Capacity.response_profile m ~n_min:6 ~n_max:12 in
  (* response time decreases with more servers *)
  let rec check_decreasing = function
    | (_, w1) :: ((_, w2) :: _ as rest) ->
        if w2 > w1 +. 1e-9 then Alcotest.fail "W must decrease in N";
        check_decreasing rest
    | _ -> ()
  in
  check_decreasing prof;
  match Urs.Capacity.min_servers_for_response m ~target:1.3 with
  | Error e -> Alcotest.failf "capacity failed: %a" Urs.Solver.pp_error e
  | Ok (n, perf) ->
      Alcotest.(check bool) "meets target" true
        (perf.Urs.Solver.mean_response <= 1.3);
      (* minimality: one fewer server misses the target or is unstable *)
      let m' = Urs.Model.with_servers m (n - 1) in
      (match Urs.Solver.evaluate m' with
      | Ok p ->
          Alcotest.(check bool) "minimal" true (p.Urs.Solver.mean_response > 1.3)
      | Error _ -> ())

let test_capacity_unreachable_target () =
  let m = paper_model ~servers:2 ~lambda:1.0 in
  (* W can never drop below the mean service time 1.0 *)
  match Urs.Capacity.min_servers_for_response ~n_max:30 m ~target:0.5 with
  | Error _ -> ()
  | Ok (n, _) -> Alcotest.failf "impossible target claimed reachable at N=%d" n

(* ---- Sweep ---- *)

let test_sweep_arrival_rates () =
  let m = paper_model ~servers:5 ~lambda:1.0 in
  let pts = Urs.Sweep.over_arrival_rates m ~values:[ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "all solved" 4 (List.length pts);
  (* L increases with λ *)
  let ls = List.map (fun (_, p) -> p.Urs.Solver.mean_jobs) pts in
  let rec incr_check = function
    | a :: (b :: _ as rest) ->
        if b <= a then Alcotest.fail "L must increase with λ";
        incr_check rest
    | _ -> ()
  in
  incr_check ls

let test_sweep_scv_monotone () =
  (* the Figure 6 claim: L grows with operative-period variability *)
  let m =
    Urs.Model.create ~servers:10 ~arrival_rate:8.5 ~service_rate:1.0
      ~operative:(Urs_prob.Distribution.exponential ~rate:(1.0 /. 34.62))
      ~inoperative:(Urs_prob.Distribution.exponential ~rate:0.2) ()
  in
  let pts =
    Urs.Sweep.over_operative_scv m ~pinned_rate:0.1663
      ~values:[ 1.0; 4.0; 10.0; 18.0 ]
  in
  Alcotest.(check int) "all solved" 4 (List.length pts);
  let ls = List.map (fun (_, p) -> p.Urs.Solver.mean_jobs) pts in
  let rec incr_check = function
    | a :: (b :: _ as rest) ->
        if b <= a then Alcotest.fail "L must increase with C²";
        incr_check rest
    | _ -> ()
  in
  incr_check ls

let test_sweep_repair_times () =
  let m = paper_model ~servers:10 ~lambda:8.0 in
  let pts = Urs.Sweep.over_repair_times m ~values:[ 1.0; 3.0; 5.0 ] in
  Alcotest.(check int) "solved" 3 (List.length pts);
  let ls = List.map (fun (_, p) -> p.Urs.Solver.mean_jobs) pts in
  (match ls with
  | [ a; b; c ] ->
      Alcotest.(check bool) "L grows with repair time" true (a < b && b < c)
  | _ -> Alcotest.fail "unexpected shape")

(* Every sweep axis keeps the model's repair crews: each point equals
   Solver.evaluate of the same crew-limited model, built directly. *)
let test_sweep_keeps_repair_crews () =
  let module D = Urs_prob.Distribution in
  let crewed ?(servers = 5) ?(lambda = 3.0)
      ?(operative = Urs.Model.paper_operative)
      ?(inoperative = D.exponential ~rate:5.0) () =
    Urs.Model.create ~repair_crews:1 ~servers ~arrival_rate:lambda
      ~service_rate:1.0 ~operative ~inoperative ()
  in
  let m = crewed () in
  let check axis model_at points =
    Alcotest.(check int) (axis ^ ": all solved") 2 (List.length points);
    List.iter
      (fun (x, (p : Urs.Solver.performance)) ->
        let expected = (Urs.Solver.evaluate_exn (model_at x)).mean_jobs in
        if Int64.bits_of_float p.mean_jobs <> Int64.bits_of_float expected
        then
          Alcotest.failf "%s at %g: L = %.12g, the crew-limited model's %.12g"
            axis x p.mean_jobs expected)
      points
  in
  check "servers"
    (fun n -> crewed ~servers:(int_of_float n) ())
    (List.map
       (fun (n, p) -> (float_of_int n, p))
       (Urs.Sweep.over_servers m ~values:[ 4; 6 ]));
  check "arrival rates"
    (fun lambda -> crewed ~lambda ())
    (Urs.Sweep.over_arrival_rates m ~values:[ 2.0; 3.5 ]);
  check "repair times"
    (fun mean -> crewed ~inoperative:(D.exponential ~rate:(1.0 /. mean)) ())
    (Urs.Sweep.over_repair_times m ~values:[ 0.04; 0.2 ]);
  let mean = D.mean Urs.Model.paper_operative in
  check "operative scv"
    (fun scv ->
      match
        Urs_prob.Fit.h2_of_mean_scv_pinned_rate ~mean ~scv ~pinned_rate:0.1663
      with
      | Ok h2 -> crewed ~operative:(D.Hyperexponential h2) ()
      | Error _ -> Alcotest.failf "no H2 fit at scv %g" scv)
    (Urs.Sweep.over_operative_scv m ~pinned_rate:0.1663 ~values:[ 4.0; 10.0 ]);
  let capacity = (Urs.Model.stability m).Urs_mmq.Stability.effective_capacity in
  check "loads"
    (fun load -> crewed ~lambda:(load *. capacity) ())
    (Urs.Sweep.over_loads m ~values:[ 0.3; 0.6 ])

let test_linspace () =
  match Urs.Sweep.linspace 0.0 1.0 5 with
  | [ a; b; _; _; e ] ->
      check_float "first" 0.0 a;
      check_float "step" 0.25 b;
      check_float "last" 1.0 e
  | _ -> Alcotest.fail "wrong length"

(* ---- the POST /solve service ---- *)

module Json = Urs_obs.Json
module Http = Urs_obs.Http

let handle ?pool ?cache ?max_iter body =
  Urs.Solve_service.handle ?pool ?cache ?max_iter [] ~body

let performance_of resp =
  match Json.of_string resp.Http.body with
  | Error msg -> Alcotest.failf "response is not JSON (%s): %s" msg resp.Http.body
  | Ok j -> (
      match Json.member "performance" j with
      | Some p -> Json.to_string p
      | None -> Alcotest.failf "no performance object in %s" resp.Http.body)

let test_solve_service_scenario () =
  let resp = handle {|{"scenario":"paper"}|} in
  Alcotest.(check int) "status" 200 resp.Http.status;
  Alcotest.(check string)
    "content type" "application/json" resp.Http.content_type;
  let expected =
    match Urs.Solver.evaluate (paper_model ~servers:10 ~lambda:8.0) with
    | Ok p -> p
    | Error e ->
        Alcotest.failf "direct solve failed: %s"
          (Format.asprintf "%a" Urs.Solver.pp_error e)
  in
  let j = Result.get_ok (Json.of_string resp.Http.body) in
  let perf_float field =
    match Option.bind (Json.member "performance" j) (Json.member field) with
    | Some v -> Option.value ~default:nan (Json.to_float_opt v)
    | None -> Alcotest.failf "missing performance.%s" field
  in
  (* bit-identical to the library solver, not merely close *)
  check_float ~tol:0.0 "mean_jobs matches Solver.evaluate exactly"
    expected.Urs.Solver.mean_jobs (perf_float "mean_jobs");
  check_float ~tol:0.0 "mean_response matches" expected.Urs.Solver.mean_response
    (perf_float "mean_response");
  (* mean queue wait = sojourn minus the 1/µ service requirement *)
  check_float "queue wait"
    (expected.Urs.Solver.mean_response -. 1.0)
    (perf_float "mean_queue_wait");
  (* an empty body solves the same model as a bare `urs solve` *)
  Alcotest.(check string)
    "{} is the paper model"
    (performance_of resp)
    (performance_of (handle "{}"))

let test_solve_service_pool_identical () =
  let body = {|{"servers":10,"lambda":8,"mu":1,"strategy":"exact"}|} in
  let seq = performance_of (handle body) in
  let par =
    Urs_exec.Pool.with_pool ~name:"solve-test" ~domains:4 (fun pool ->
        performance_of (handle ~pool body))
  in
  Alcotest.(check string) "performance byte-identical across pool widths" seq
    par

let test_solve_service_cache_annotation () =
  let cache = Urs.Solve_cache.create () in
  let body = {|{"scenario":"paper-h2"}|} in
  let first = handle ~cache body in
  let second = handle ~cache body in
  check_contains "first solve is a miss" first.Http.body
    {|"cache":{"hit":false,"enabled":true}|};
  check_contains "second solve hits" second.Http.body
    {|"cache":{"hit":true,"enabled":true}|};
  Alcotest.(check string)
    "cached answer identical" (performance_of first) (performance_of second);
  (* without a cache the response says so *)
  check_contains "cacheless solve" (handle body).Http.body
    {|"cache":{"hit":false,"enabled":false}|}

let test_solve_service_max_iter_drill () =
  (* a starved solver is a 500 — the error-rate-SLO breach drill *)
  let resp = handle ~max_iter:1 {|{"scenario":"paper"}|} in
  Alcotest.(check int) "solver failure is a 500" 500 resp.Http.status;
  check_contains "error payload" resp.Http.body {|"error"|}

let test_solve_service_client_errors () =
  List.iter
    (fun (label, body) ->
      let resp = handle body in
      if resp.Http.status <> 400 then
        Alcotest.failf "%s: got %d (want 400): %s" label resp.Http.status
          resp.Http.body)
    [
      ("malformed json", "{");
      ("not an object", "[1,2]");
      ("unknown scenario", {|{"scenario":"nope"}|});
      ("unknown strategy", {|{"strategy":"magic"}|});
      ("bad distribution", {|{"operative":"nope:1"}|});
      ("non-numeric field", {|{"lambda":"eight"}|});
      ("unstable model", {|{"servers":1,"lambda":5,"mu":1}|});
      ("invalid model", {|{"servers":0}|});
    ]

let test_solve_service_parse_request () =
  match
    Urs.Solve_service.parse_request
      {|{"scenario":"paper","strategy":"sim",
         "sim":{"duration":1000,"replications":2,"seed":5}}|}
  with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok (m, Urs.Solver.Simulation { Urs.Solver.duration; replications; seed }) ->
      Alcotest.(check int) "servers from scenario" 10 m.Urs.Model.servers;
      check_float "duration" 1000.0 duration;
      Alcotest.(check int) "replications" 2 replications;
      Alcotest.(check int) "seed" 5 seed
  | Ok _ -> Alcotest.fail "expected the simulation strategy"

(* ---- loadgen ---- *)

let with_ping_server f =
  let server =
    Http.start ~port:0
      ~routes:[ ("/ping", fun _q -> Http.respond "pong\n") ]
      ()
  in
  Fun.protect ~finally:(fun () -> Http.stop server) (fun () -> f (Http.port server))

let test_loadgen_closed_loop () =
  with_ping_server @@ fun port ->
  let r =
    Urs.Loadgen.run ~port ~target:"/ping" ~duration_s:0.5
      ~mode:(Urs.Loadgen.Closed { workers = 2; think_s = 0.0 })
      ()
  in
  if r.Urs.Loadgen.requests <= 0 then Alcotest.fail "no requests completed";
  Alcotest.(check int) "no errors" 0 r.Urs.Loadgen.errors;
  Alcotest.(check int) "no timeouts" 0 r.Urs.Loadgen.timeouts;
  Alcotest.(check (list (pair int int)))
    "every response was a 200"
    [ (200, r.Urs.Loadgen.requests) ]
    r.Urs.Loadgen.codes;
  let finite_positive msg v =
    if not (v > 0.0 && Float.is_finite v) then
      Alcotest.failf "%s: %g not finite-positive" msg v
  in
  finite_positive "throughput" r.Urs.Loadgen.throughput;
  finite_positive "mean latency" r.Urs.Loadgen.mean_s;
  finite_positive "p50" r.Urs.Loadgen.p50_s;
  finite_positive "p99" r.Urs.Loadgen.p99_s;
  if r.Urs.Loadgen.p99_s < r.Urs.Loadgen.p50_s then
    Alcotest.fail "quantiles must be monotone";
  Alcotest.(check string) "mode label" "closed" (Urs.Loadgen.mode_label r.Urs.Loadgen.mode)

let test_loadgen_open_loop_rate () =
  (* the workers share ONE Poisson schedule: the completed count tracks
     rate * duration, not workers * rate * duration *)
  with_ping_server @@ fun port ->
  let r =
    Urs.Loadgen.run ~seed:3 ~port ~target:"/ping" ~duration_s:1.0
      ~mode:(Urs.Loadgen.Open { rate = 200.0; workers = 2 })
      ()
  in
  let n = r.Urs.Loadgen.requests in
  if n < 100 || n > 300 then
    Alcotest.failf "open loop at rate 200 for 1s completed %d requests" n;
  Alcotest.(check int) "no errors" 0 r.Urs.Loadgen.errors

let test_loadgen_validation () =
  let expect_invalid label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s should raise Invalid_argument" label
  in
  let run duration_s mode () =
    ignore (Urs.Loadgen.run ~port:1 ~target:"/x" ~duration_s ~mode ())
  in
  expect_invalid "zero duration"
    (run 0.0 (Urs.Loadgen.Closed { workers = 1; think_s = 0.0 }));
  expect_invalid "zero workers"
    (run 1.0 (Urs.Loadgen.Closed { workers = 0; think_s = 0.0 }));
  expect_invalid "negative think"
    (run 1.0 (Urs.Loadgen.Closed { workers = 1; think_s = -1.0 }));
  expect_invalid "zero rate"
    (run 1.0 (Urs.Loadgen.Open { rate = 0.0; workers = 1 }))

let test_loadgen_compare_model () =
  with_ping_server @@ fun port ->
  let r =
    Urs.Loadgen.run ~port ~target:"/ping" ~duration_s:0.3
      ~mode:(Urs.Loadgen.Closed { workers = 1; think_s = 0.0 })
      ()
  in
  (match Urs.Loadgen.compare_model ~probes:10 ~port ~target:"/ping" r with
  | Error msg -> Alcotest.failf "comparison failed: %s" msg
  | Ok c ->
      if not (c.Urs.Loadgen.mu_hat > 0.0) then
        Alcotest.failf "fitted service rate %g" c.Urs.Loadgen.mu_hat;
      check_float ~tol:0.0 "lambda is the measured throughput"
        r.Urs.Loadgen.throughput c.Urs.Loadgen.lambda;
      check_float ~tol:0.0 "measured response carried over"
        r.Urs.Loadgen.mean_s c.Urs.Loadgen.measured_response_s);
  (* every calibration probe failing is an Error, not a crash *)
  match Urs.Loadgen.compare_model ~probes:2 ~port:1 ~target:"/ping" r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dead port should fail calibration"

let () =
  Alcotest.run "urs_core"
    [
      ( "model",
        [
          Alcotest.test_case "validation" `Quick test_model_validation;
          Alcotest.test_case "paper distributions" `Quick
            test_model_paper_distributions;
          Alcotest.test_case "phase-type detection" `Quick
            test_model_phase_type_detection;
          Alcotest.test_case "with_servers" `Quick test_model_with_servers;
        ] );
      ( "solver",
        [
          Alcotest.test_case "strategies agree" `Slow test_solver_strategies_agree;
          Alcotest.test_case "little's law" `Quick test_solver_little_law;
          Alcotest.test_case "strategy labels" `Quick
            test_solver_strategy_labels;
          Alcotest.test_case "unstable error" `Quick test_solver_unstable_error;
          Alcotest.test_case "non-phase-type routing" `Slow
            test_solver_non_phase_type_needs_simulation;
          Alcotest.test_case "approximation behaviour at moderate load" `Quick
            test_solver_approximate_underestimates_moderate_load;
        ] );
      ( "cost (figure 5)",
        [
          Alcotest.test_case "formula (eq 22)" `Quick test_cost_formula;
          Alcotest.test_case "optimum is a local minimum" `Slow
            test_cost_optimum_small;
          Alcotest.test_case "unstable range" `Quick test_cost_unstable_range_empty;
        ] );
      ( "capacity (figure 9)",
        [
          Alcotest.test_case "monotone and minimal" `Slow
            test_capacity_monotone_and_minimal;
          Alcotest.test_case "unreachable target" `Quick
            test_capacity_unreachable_target;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "arrival rates" `Quick test_sweep_arrival_rates;
          Alcotest.test_case "scv monotone (figure 6)" `Quick
            test_sweep_scv_monotone;
          Alcotest.test_case "repair times (figure 7)" `Quick
            test_sweep_repair_times;
          Alcotest.test_case "repair crews on every axis" `Quick
            test_sweep_keeps_repair_crews;
          Alcotest.test_case "linspace" `Quick test_linspace;
        ] );
      ( "solve-service",
        [
          Alcotest.test_case "paper scenario" `Quick test_solve_service_scenario;
          Alcotest.test_case "pool-width invariance" `Quick
            test_solve_service_pool_identical;
          Alcotest.test_case "cache annotation" `Quick
            test_solve_service_cache_annotation;
          Alcotest.test_case "max-iter fault drill" `Quick
            test_solve_service_max_iter_drill;
          Alcotest.test_case "client errors are 400s" `Quick
            test_solve_service_client_errors;
          Alcotest.test_case "request parsing" `Quick
            test_solve_service_parse_request;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "closed loop" `Quick test_loadgen_closed_loop;
          Alcotest.test_case "open loop offered rate" `Quick
            test_loadgen_open_loop_rate;
          Alcotest.test_case "parameter validation" `Quick
            test_loadgen_validation;
          Alcotest.test_case "model comparison" `Quick
            test_loadgen_compare_model;
        ] );
    ]
