(* The traced run's in-process layer probes. Each public call is timed
   inside a benchmark span, with the program's own spans nested under
   it, so a layer's self time is its span minus its children. *)

module Json = Urs_obs.Json
module Metrics = Urs_obs.Metrics
module Mq = Urs_mmq
module Farm = Urs_sim.Server_farm

let span = Tracing.span

let counter name = Option.value ~default:0.0 (Metrics.value name)

let median xs = Urs_stats.Empirical.quantile (Array.of_list xs) 0.5

(* least-squares slope of log y against log x *)
let loglog_slope pts =
  let n = float (List.length pts) in
  let lx = List.map (fun (x, _) -> log x) pts and ly = List.map (fun (_, y) -> log y) pts in
  let mx = List.fold_left ( +. ) 0.0 lx /. n and my = List.fold_left ( +. ) 0.0 ly /. n in
  let sxy = List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0.0 lx ly in
  let sxx = List.fold_left (fun a x -> a +. ((x -. mx) ** 2.0)) 0.0 lx in
  sxy /. sxx

let stages = [ "eigenvalues"; "eigenvectors"; "boundary"; "normalization" ]

type row = {
  servers : int;
  modes : int;
  qbd_s : float;
  solve_s : float;
  stage_s : float list;  (** in the order of [stages] *)
  residual : float;
  sweeps : float;
  lu : float;
  geometric_s : float;
}

(* Spectral.solve across N, with the model assembly, the geometric
   approximation and the QR and LU counts of each size *)
let spectral st =
  let rows =
    List.map
      (fun servers ->
        let m = Plan.paper ~servers ~lambda:(Plan.lambda_at ~servers (Common.uniform st 0.6 0.95)) in
        let q, qbd_s = Common.time (fun () -> span "model_qbd" (fun () -> Option.get (Urs.Model.qbd m))) in
        let sweeps0 = counter "urs_qr_sweeps_total" and lu0 = counter "urs_spectral_lu_factorizations_total" in
        let sol, solve_s = Common.time (fun () -> span "spectral_solve" (fun () -> Mq.Spectral.solve q)) in
        let sweeps = counter "urs_qr_sweeps_total" -. sweeps0
        and lu = counter "urs_spectral_lu_factorizations_total" -. lu0 in
        let residual = Mq.Spectral.residual (Result.get_ok sol) in
        let spans = Tracing.harvest () in
        let stage_s =
          List.map (fun st -> Tracing.total spans (Printf.sprintf "urs_spectral_stage{%s}" st)) stages
        in
        let _, geometric_s = Common.time (fun () -> span "geometric_solve" (fun () -> Mq.Geometric.solve q)) in
        ignore (Tracing.harvest ());
        { servers; modes = Mq.Qbd.s q; qbd_s; solve_s; stage_s; residual; sweeps; lu; geometric_s })
      [ 8; 10; 12; 14; 16 ]
  in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 rows in
  let stage i = sum (fun r -> List.nth r.stage_s i) in
  let table =
    List.map
      (fun r ->
        Json.Obj
          ([
             ("N", Json.Int r.servers);
             ("s", Json.Int r.modes);
             ("solve_s", Json.Float r.solve_s);
             ("residual", Json.Float r.residual);
             ("qr_sweeps", Json.Float r.sweeps);
             ("lu", Json.Float r.lu);
           ]
          @ List.map2 (fun name v -> (name ^ "_s", Json.Float v)) stages r.stage_s))
      rows
  in
  ( table,
    [
      ("model.qbd_ms", 1000.0 *. sum (fun r -> r.qbd_s) /. float (List.length rows));
      ("spectral.solve_s", sum (fun r -> r.solve_s));
      ("spectral.eigenvalues_s", stage 0);
      ("spectral.eigenvectors_s", stage 1);
      ("spectral.boundary_s", stage 2);
      ("spectral.normalization_s", stage 3);
      ("spectral.scaling_exp", loglog_slope (List.map (fun r -> (float r.modes, r.solve_s)) rows));
      ("qr.sweeps", sum (fun r -> r.sweeps));
      ("spectral.lu_count", sum (fun r -> r.lu));
      ("spectral.residual_max", List.fold_left (fun a r -> Float.max a r.residual) 0.0 rows);
      ("geometric.solve_s", sum (fun r -> r.geometric_s));
    ] )

(* Solver.evaluate minus the Spectral.solve inside it, on one N = 10 model *)
let solver_overhead () =
  let m = Plan.paper ~servers:10 ~lambda:8.0 in
  let samples =
    List.init 5 (fun _ ->
        ignore (span "solver_evaluate" (fun () -> Urs.Solver.evaluate m));
        let t = Tracing.harvest () in
        Tracing.total t "perfbench_solver_evaluate" -. Tracing.total t "urs_spectral_solve")
  in
  [ ("solver.overhead_ms", 1000.0 *. median samples) ]

(* Replicate.run as the simulate workload calls it, against
   Server_farm.run without a probe on the same replication seeds *)
let simulation st =
  let engine = ref 0.0 and replicate = ref 0.0 and events = ref 0.0 and words = ref 0.0 in
  let ci_rel = ref 0.0 in
  Array.iter
    (fun (_, cfg, duration) ->
      let seed = Random.State.bits st in
      let e0 = counter "urs_sim_events_total" and w0 = Gc.minor_words () in
      let s, dt =
        Common.time (fun () -> span "replicate" (fun () -> Simulate.replicate ~seed ~duration cfg))
      in
      events := !events +. (counter "urs_sim_events_total" -. e0);
      words := !words +. (Gc.minor_words () -. w0);
      replicate := !replicate +. dt;
      let i = s.Urs_sim.Replicate.mean_jobs in
      ci_rel := Float.max !ci_rel (i.half_width /. i.estimate);
      (* Replicate.run draws its replication seeds from a master stream *)
      let master = Urs_prob.Rng.create seed in
      for _ = 1 to s.Urs_sim.Replicate.replications do
        let seed = Urs_prob.Rng.split_seed master in
        let _, dt =
          Common.time (fun () ->
              span "sim_engine" (fun () -> Farm.run ~seed ~track_responses:false ~duration cfg))
        in
        engine := !engine +. dt
      done;
      ignore (Tracing.harvest ()))
    Simulate.models;
  [
    ("sim.engine_s", !engine);
    ("sim.probe_s", !replicate -. !engine);
    ("sim.events", !events);
    ("sim.events_per_s", !events /. !replicate);
    ("sim.minor_words_per_event", !words /. !events);
    ("replicate.ci_rel", !ci_rel);
  ]

(* Mean seconds per call of [f i] for i = 0..n-1: the clock is read once
   around the loop, with tracing off so that no span is recorded, and
   the median of [reps] loops is kept. Microsecond calls are timed this
   way because a single call is near the clock's 1 us resolution. *)
let per_call ?(reps = 5) n f =
  let was = Urs_obs.Span.tracing_enabled () in
  Urs_obs.Span.set_tracing false;
  let loop () =
    let t0 = Common.now () in
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (f i))
    done;
    (Common.now () -. t0) /. float n
  in
  let m = median (List.init reps (fun _ -> loop ())) in
  Urs_obs.Span.set_tracing was;
  m

(* The server-side split of POST /solve, from the serve request stream
   replayed in-process. A span pass feeds the self-time report; the
   figures come from untraced calls: loops for the microsecond-scale
   hit path, single calls for the millisecond-scale misses. *)
let solve_service st =
  let used = Hashtbl.create 256 in
  let bodies = Array.of_list (List.init 400 (fun _ -> snd (Mix.draw st used))) in
  let warm () =
    let cache = Urs.Solve_cache.create () in
    Array.iter (fun b -> ignore (Urs.Solve_service.handle ~cache [] ~body:b)) Mix.hot_bodies;
    cache
  in
  let parse b = Result.get_ok (Urs.Solve_service.parse_request b) in
  (* the span pass: two caches see the same sequence, so a request
     that misses in one misses in the other *)
  let lookup_cache = warm () and handle_cache = warm () in
  Array.iter
    (fun body ->
      let model, strategy = span "parse_request" (fun () -> parse body) in
      ignore
        (span "solve_cache" (fun () ->
             Urs.Solve_cache.evaluate_info ~cache:lookup_cache ~strategy model));
      ignore (span "handle" (fun () -> Urs.Solve_service.handle ~cache:handle_cache [] ~body)))
    bodies;
  ignore (Tracing.harvest ());
  (* misses, untraced, against a fresh cache *)
  Urs_obs.Span.set_tracing false;
  let cache = warm () in
  let misses =
    Array.to_list bodies
    |> List.filter_map (fun body ->
           let model, strategy = parse body in
           let (_, hit), dt =
             Common.time (fun () -> Urs.Solve_cache.evaluate_info ~cache ~strategy model)
           in
           if hit then None else Some dt)
  in
  Urs_obs.Span.set_tracing true;
  let hot = Array.map parse Mix.hot_bodies in
  let nhot = Array.length hot in
  let n = 4000 in
  let parse_s = per_call n (fun i -> Urs.Solve_service.parse_request bodies.(i mod 400)) in
  let parse_hot_s = per_call n (fun i -> Urs.Solve_service.parse_request Mix.hot_bodies.(i mod nhot)) in
  let hit_s =
    per_call n (fun i ->
        let model, strategy = hot.(i mod nhot) in
        Urs.Solve_cache.evaluate_info ~cache ~strategy model)
  in
  let handle_hit_s =
    per_call n (fun i -> Urs.Solve_service.handle ~cache [] ~body:Mix.hot_bodies.(i mod nhot))
  in
  [
    ("solve_service.parse_us", 1e6 *. parse_s);
    ("solve_cache.hit_us", 1e6 *. hit_s);
    ("solve_cache.miss_ms", 1e3 *. median misses);
    ("solve_service.render_us", 1e6 *. (handle_hit_s -. parse_hot_s -. hit_s));
    ("solve_service.handle_hit_us", 1e6 *. handle_hit_s);
  ]

(* Ledger.record with the ledger settings the serve workload gives
   urs serve: 64 KiB segments, 3 kept, a flush every 64 *)
let ledger ~out =
  let path = Filename.concat out "layers-ledger.jsonl" in
  Urs_obs.Ledger.set_memory true;
  Urs_obs.Ledger.open_file ~truncate:true ~max_bytes:65536 ~keep:3 ~flush_every:64 path;
  let n = 4000 in
  let (), dt =
    Common.time (fun () ->
        span "ledger_record" (fun () ->
            for i = 1 to n do
              Urs_obs.Ledger.record ~kind:"http.access"
                ~params:[ ("method", Json.String "POST"); ("route", Json.String "/solve") ]
                ~summary:[ ("status", Json.Int 200); ("bytes", Json.Int (300 + (i land 63))) ]
                ~wall_seconds:0.0005 ()
            done))
  in
  Urs_obs.Ledger.close ();
  Urs_obs.Ledger.set_memory false;
  ignore (Tracing.harvest ());
  [ ("ledger.append_us", 1e6 *. dt /. float n) ]

let doctor () =
  let _, dt = Common.time (fun () -> span "doctor" (fun () -> Urs.Doctor.run ~quick:true ())) in
  ignore (Tracing.harvest ());
  [ ("doctor.quick_s", dt) ]

let run ~seed ~out =
  let st = Common.rng ~seed "layers" in
  Urs_obs.Span.set_tracing true;
  let table, spectral_metrics = spectral st in
  let metrics =
    List.concat
      [
        spectral_metrics;
        solver_overhead ();
        simulation st;
        solve_service st;
        ledger ~out;
        doctor ();
      ]
  in
  Tracing.write (Filename.concat out "layers-trace.json");
  Common.emit
    [
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics));
      ("spectral_table", Json.List table);
      ("self_times", Tracing.self_times ());
    ]
