(* Cross-checks the four evaluation methods against each other on a
   small grid of paper models and folds every numerical-health probe
   into one verdict. This is what `urs doctor` runs and what the
   /healthz endpoint of `urs serve` reports. *)

module Mq = Urs_mmq
module Diagnostics = Urs_mmq.Diagnostics
module Metrics = Urs_obs.Metrics
module Span = Urs_obs.Span
module Ledger = Urs_obs.Ledger
module Json = Urs_obs.Json

type check = {
  name : string;
  value : float;
  detail : string;
  verdict : Diagnostics.verdict;
}

type report = { checks : check list; verdict : Diagnostics.verdict }

let verdict r = r.verdict

let paper_model ~servers ~lambda =
  Model.create ~servers ~arrival_rate:lambda ~service_rate:1.0
    ~operative:Model.paper_operative ~inoperative:Model.paper_inoperative_exp
    ()

(* the approximation is only asymptotically exact as load -> 1, and its
   error grows roughly with the distance from saturation; grade against
   a band proportional to (1 - utilization) — loose enough for honest
   low-load error, tight enough to catch sign errors and unit mix-ups *)
let grade_approx ~label ~utilization delta =
  let band = Float.max 0.2 (3.0 *. (1.0 -. utilization)) in
  if Float.is_nan delta then
    Diagnostics.Suspect [ label ^ ": non-finite approximation delta" ]
  else if delta > 3.0 *. band then
    Diagnostics.Suspect
      [ Printf.sprintf "%s: approximation off by %.0f%%" label (100. *. delta) ]
  else if delta > band then
    Diagnostics.Degraded
      [ Printf.sprintf "%s: approximation off by %.0f%%" label (100. *. delta) ]
  else Diagnostics.Ok

let check_model ?sim ?pool model =
  let name =
    Printf.sprintf "N=%d lambda=%g" model.Model.servers
      model.Model.arrival_rate
  in
  Span.with_ ~name:"urs_doctor_model" ~labels:[ ("model", name) ]
  @@ fun () ->
  match Model.qbd model with
  | None ->
      [
        {
          name;
          value = nan;
          detail = "not phase-type";
          verdict = Diagnostics.Suspect [ name ^ ": model not phase-type" ];
        };
      ]
  | Some q -> (
      match Mq.Spectral.solve q with
      | Error e ->
          let msg = Format.asprintf "%a" Mq.Spectral.pp_error e in
          [
            {
              name = name ^ " spectral";
              value = nan;
              detail = msg;
              verdict = Diagnostics.Suspect [ name ^ ": " ^ msg ];
            };
          ]
      | Ok sol ->
          let rep = Diagnostics.check_spectral sol in
          Diagnostics.observe_spectral rep;
          let exact_l = Mq.Spectral.mean_queue_length sol in
          let spectral_check =
            {
              name = name ^ " spectral";
              value = rep.Diagnostics.balance_residual;
              detail = Format.asprintf "%a" Diagnostics.pp_spectral_report rep;
              verdict = rep.Diagnostics.verdict;
            }
          in
          let mg_check =
            match Mq.Matrix_geometric.solve q with
            | Error e ->
                let msg = Format.asprintf "%a" Mq.Matrix_geometric.pp_error e in
                {
                  name = name ^ " exact-vs-mg";
                  value = nan;
                  detail = msg;
                  verdict = Diagnostics.Suspect [ name ^ " mg: " ^ msg ];
                }
            | Ok mg ->
                let d, v =
                  Diagnostics.check_exact_pair
                    ~label:(name ^ ": spectral vs matrix-geometric L")
                    exact_l
                    (Mq.Matrix_geometric.mean_queue_length mg)
                in
                {
                  name = name ^ " exact-vs-mg";
                  value = d;
                  detail = Printf.sprintf "relative delta %.2e" d;
                  verdict = v;
                }
          in
          let approx_check =
            match Mq.Geometric.solve q with
            | Error e ->
                let msg = Format.asprintf "%a" Mq.Geometric.pp_error e in
                {
                  name = name ^ " exact-vs-approx";
                  value = nan;
                  detail = msg;
                  verdict = Diagnostics.Suspect [ name ^ " approx: " ^ msg ];
                }
            | Ok g ->
                let d =
                  Diagnostics.relative_delta exact_l
                    (Mq.Geometric.mean_queue_length g)
                in
                {
                  name = name ^ " exact-vs-approx";
                  value = d;
                  detail = Printf.sprintf "relative delta %.2e" d;
                  verdict =
                    grade_approx ~label:name
                      ~utilization:
                        (Model.stability model).Mq.Stability.utilization d;
                }
          in
          let sim_checks =
            match sim with
            | None -> []
            | Some opts -> (
                match
                  Solver.evaluate ?pool ~strategy:(Solver.Simulation opts)
                    model
                with
                | Error e ->
                    let msg = Format.asprintf "%a" Solver.pp_error e in
                    [
                      {
                        name = name ^ " exact-vs-sim";
                        value = nan;
                        detail = msg;
                        verdict = Diagnostics.Suspect [ name ^ " sim: " ^ msg ];
                      };
                    ]
                | Ok perf ->
                    let hw =
                      Option.value perf.Solver.confidence_half_width
                        ~default:infinity
                    in
                    let d, v =
                      Diagnostics.check_simulation_agreement
                        ~label:(name ^ ": simulated L") ~exact:exact_l
                        ~estimate:perf.Solver.mean_jobs ~half_width:hw ()
                    in
                    let rel_ci, v_ci =
                      Diagnostics.check_ci ~label:(name ^ ": simulated L")
                        ~estimate:perf.Solver.mean_jobs ~half_width:hw ()
                    in
                    [
                      {
                        name = name ^ " exact-vs-sim";
                        value = d;
                        detail =
                          Printf.sprintf "relative delta %.2e (CI ±%.3g)" d hw;
                        verdict = v;
                      };
                      {
                        name = name ^ " sim-ci";
                        value = rel_ci;
                        detail =
                          Printf.sprintf "relative CI half-width %.2e" rel_ci;
                        verdict = v_ci;
                      };
                    ])
          in
          spectral_check :: mg_check :: approx_check :: sim_checks)

(* ---- warm-up (initial transient) analysis ----

   A dedicated short batch of warmup-less replications of the N=5 paper
   model records mean-jobs trajectories into a private timeline registry
   (private so a concurrent doctor grid on the same pool cannot
   interleave same-keyed series). The replication-averaged trajectory
   feeds Welch's truncation rule — is the warmup the sim checks actually
   use long enough? — and is cross-checked against the uniformization
   transient expectation at a handful of time points. *)

let warmup_horizon = 2_000.0
let warmup_replications = 16
let warmup_capacity = 200
let warmup_seed = 11

(* Welch band: replication-averaged trajectories over a handful of short
   runs carry a few percent of noise even once settled; 5% would trip on
   noise, 10% detects the real ramp reliably *)
let warmup_tolerance = 0.1

let avg_trajectories trajs =
  let len = List.fold_left (fun m a -> max m (Array.length a)) 0 trajs in
  Array.init len (fun i ->
      let sum = ref 0.0 and cnt = ref 0 in
      List.iter
        (fun a ->
          if i < Array.length a && Float.is_finite a.(i) then begin
            sum := !sum +. a.(i);
            incr cnt
          end)
        trajs;
      if !cnt > 0 then !sum /. float_of_int !cnt else nan)

let check_warmup ?pool ~sim model =
  let name =
    Printf.sprintf "N=%d lambda=%g" model.Model.servers
      model.Model.arrival_rate
  in
  let registry = Urs_obs.Timeline.create () in
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
  let (_ : Urs_sim.Replicate.summary) =
    Span.with_ ~name:"urs_doctor_warmup" (fun () ->
        Urs_sim.Replicate.run ?pool ~seed:warmup_seed
          ~replications:warmup_replications ~warmup:0.0
          ~timeline_registry:registry ~timeline_capacity:warmup_capacity
          ~duration:warmup_horizon cfg)
  in
  let snaps =
    Urs_obs.Timeline.snapshot ~registry ~name:"urs_sim_jobs" ()
  in
  let width =
    match snaps with
    | s :: _ -> s.Urs_obs.Timeline.width
    | [] -> warmup_horizon /. float_of_int warmup_capacity
  in
  let avg = avg_trajectories (List.map Urs_obs.Timeline.mean_array snaps) in
  let truncation =
    Option.map
      (fun i -> float_of_int i *. width)
      (Urs_stats.Welch.truncation_index ~tolerance:warmup_tolerance avg)
  in
  (* warmup the actual sim checks use: Server_farm's 0.1 * duration *)
  let sim_warmup = 0.1 *. sim.Solver.duration in
  let warmup_check =
    {
      name = name ^ " warmup";
      value = (match truncation with Some t -> t | None -> nan);
      detail =
        (match truncation with
        | Some t ->
            Printf.sprintf
              "Welch truncation at t=%.0f (sim warmup %.0f, horizon %.0f)" t
              sim_warmup warmup_horizon
        | None ->
            Printf.sprintf "no settling within the %.0f-unit horizon"
              warmup_horizon);
      verdict =
        Diagnostics.check_warmup ~label:(name ^ ": warm-up")
          ~warmup:sim_warmup ~horizon:warmup_horizon truncation;
    }
  in
  let transient_check =
    let fail detail verdict = { name = name ^ " sim-vs-transient"; value = nan; detail; verdict } in
    match Model.qbd model with
    | None ->
        fail "not phase-type"
          (Diagnostics.Degraded [ name ^ ": transient check needs phase-type" ])
    | Some q -> (
        match Mq.Transient.create q with
        | Error e ->
            let msg = Format.asprintf "%a" Mq.Transient.pp_error e in
            fail msg (Diagnostics.Degraded [ name ^ " transient: " ^ msg ])
        | Ok tr ->
            let initial = Mq.Transient.empty_all_operative tr in
            (* uniformization cost grows linearly with t (the Poisson
               series needs ~q·t terms), so the cross-check covers the
               initial ramp — the regime where the transient solution
               actually differs from steady state; late-time agreement
               is already covered by the exact-vs-sim check *)
            let pairs =
              List.filter_map
                (fun i ->
                  if i < Array.length avg && Float.is_finite avg.(i) then begin
                    let time = (float_of_int i +. 0.5) *. width in
                    Some
                      ( time,
                        avg.(i),
                        Mq.Transient.mean_jobs_at tr ~initial ~time )
                  end
                  else None)
                [ 0; 1; 2; 3; 4 ]
            in
            let worst, verdict =
              Diagnostics.check_transient_trajectory
                ~label:(name ^ ": L(t) vs uniformization")
                pairs
            in
            {
              name = name ^ " sim-vs-transient";
              value = worst;
              detail =
                Printf.sprintf
                  "worst relative delta %.2g over %d trajectory points" worst
                  (List.length pairs);
              verdict;
            })
  in
  [ warmup_check; transient_check ]

(* ---- memory stage ----

   The N=5 λ=4 spectral solve re-runs under the runtime probe: the
   quick-stat delta yields the top-heap high-water mark, and — when the
   runtime has eventring support — the Runtime_events consumer yields
   GC slices, from which we take the longest major-collection pause
   overlapping the probed solve window. Both are graded by
   [Diagnostics.check_memory]. The stage starts the consumer only if
   nobody else did (e.g. the CLI's [--profile-gc]) and stops only what
   it started. *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let major_pause_phase phase =
  (* runtime_phase_name: "major", "major_slice", "major_gc_stw",
     "explicit_gc_full_major", ... — anything touching the major heap
     or an explicit-GC entry point counts as a pause candidate *)
  starts_with ~prefix:"major" phase || starts_with ~prefix:"explicit" phase

let check_memory_stage model =
  let name =
    Printf.sprintf "N=%d lambda=%g" model.Model.servers
      model.Model.arrival_rate
  in
  match Model.qbd model with
  | None ->
      [
        {
          name = name ^ " memory";
          value = nan;
          detail = "not phase-type";
          verdict = Diagnostics.Degraded [ name ^ ": memory stage needs phase-type" ];
        };
      ]
  | Some q ->
      let started = Urs_obs.Runtime.start_events () in
      Fun.protect
        ~finally:(fun () -> if started then Urs_obs.Runtime.stop_events ())
        (fun () ->
          let t0 = Span.now () in
          let res, delta =
            Urs_obs.Runtime.probe ~label:"doctor.memory" (fun () ->
                Span.with_ ~name:"urs_doctor_memory" (fun () ->
                    Mq.Spectral.solve q))
          in
          let t1 = Span.now () in
          let worst_pause =
            List.fold_left
              (fun acc (s : Urs_obs.Runtime.slice) ->
                let s0 = s.Urs_obs.Runtime.start_s in
                let s1 = s0 +. s.Urs_obs.Runtime.duration_s in
                if
                  major_pause_phase s.Urs_obs.Runtime.phase
                  && s1 > t0 && s0 < t1
                then
                  match acc with
                  | Some w when w >= s.Urs_obs.Runtime.duration_s -> acc
                  | _ -> Some s.Urs_obs.Runtime.duration_s
                else acc)
              None
              (Urs_obs.Runtime.gc_slices ())
          in
          match res with
          | Error e ->
              let msg = Format.asprintf "%a" Mq.Spectral.pp_error e in
              [
                {
                  name = name ^ " memory";
                  value = nan;
                  detail = msg;
                  verdict = Diagnostics.Suspect [ name ^ " memory: " ^ msg ];
                };
              ]
          | Ok _ ->
              let top =
                float_of_int delta.Urs_obs.Runtime.top_heap_words_after
              in
              [
                {
                  name = name ^ " memory";
                  value = top;
                  detail =
                    Printf.sprintf
                      "top heap %.3g words, %.3g minor words allocated, \
                       worst major pause %s (events %s)"
                      top delta.Urs_obs.Runtime.d_minor_words
                      (match worst_pause with
                      | Some p -> Printf.sprintf "%.3g s" p
                      | None -> "none observed")
                      (if started || Urs_obs.Runtime.events_running () then
                         "on"
                       else "unavailable");
                  verdict =
                    Diagnostics.check_memory ~label:(name ^ ": memory")
                      ~top_heap_words:top ~worst_pause ();
                };
              ])

(* ---- convergence stage ----

   The N=5 λ=4 paper model is re-solved by every iterative method under
   {!Urs_obs.Convergence.with_recording}; each finished iteration trace
   (QL or QR sweeps, matrix-geometric R fixed point, Brent root refinement)
   is graded by [Diagnostics.check_convergence] — iteration-cap
   proximity, non-monotone deflation, residual stagnation, slow linear
   contraction. [qr_max_iter] exists so tests (and the curious) can
   lower the QR/QL sweep budget and watch the stage go suspect. *)

let check_convergence_stage ?qr_max_iter model =
  let name =
    Printf.sprintf "N=%d lambda=%g" model.Model.servers
      model.Model.arrival_rate
  in
  match Model.qbd model with
  | None ->
      [
        {
          name = name ^ " conv";
          value = nan;
          detail = "not phase-type";
          verdict =
            Diagnostics.Degraded [ name ^ ": convergence stage needs phase-type" ];
        };
      ]
  | Some q ->
      let spectral_res, traces =
        Urs_obs.Convergence.with_recording (fun () ->
            Span.with_ ~name:"urs_doctor_convergence"
              ~labels:[ ("model", name) ]
              (fun () ->
                let sp = Mq.Spectral.solve ?max_iter:qr_max_iter q in
                (match Mq.Matrix_geometric.solve q with
                | Ok _ | Error _ -> ());
                (match Mq.Geometric.solve q with Ok _ | Error _ -> ());
                sp))
      in
      let error_checks =
        match spectral_res with
        | Ok _ -> []
        | Error e ->
            let msg = Format.asprintf "%a" Mq.Spectral.pp_error e in
            [
              {
                name = name ^ " conv/spectral";
                value = nan;
                detail = msg;
                verdict = Diagnostics.Suspect [ name ^ " conv: " ^ msg ];
              };
            ]
      in
      let trace_checks =
        List.map
          (fun (tr : Urs_obs.Convergence.trace) ->
            let check_name =
              name ^ " conv/" ^ tr.Urs_obs.Convergence.solver
            in
            let value, verdict =
              Diagnostics.check_convergence ~label:check_name tr
            in
            {
              name = check_name;
              value;
              detail = Format.asprintf "%a" Urs_obs.Convergence.pp_trace tr;
              verdict;
            })
          traces
      in
      let empty_check =
        if trace_checks = [] then
          [
            {
              name = name ^ " conv";
              value = nan;
              detail = "no convergence traces recorded";
              verdict =
                Diagnostics.Degraded
                  [ name ^ ": no convergence traces recorded" ];
            };
          ]
        else []
      in
      error_checks @ trace_checks @ empty_check

(* ---- slo stage ----

   The SLO engine is itself part of the serving surface, so the doctor
   drills it rather than trusting it: synthetic workloads replay an
   hour of traffic through an engine on a private registry under a
   fake clock — a healthy one comfortably inside its budget and a
   faulty one burning it ten times over — and the stage is suspect
   unless the healthy drill stays quiet and the faulty one alarms.
   Four drills cover both SLI kinds (error-rate and latency). *)

let slo_drill ~label ~objective ~emit ~expect_breach =
  let registry = Metrics.create () in
  let now = ref 0.0 in
  let slo =
    Urs_obs.Slo.create ~clock:(fun () -> !now) ~registry [ objective ]
  in
  (* 61 minutes at one sample per minute: the slow 1h window gets a
     true baseline, not just the creation sample *)
  for _ = 1 to 61 do
    now := !now +. 60.0;
    emit registry;
    Urs_obs.Slo.tick slo
  done;
  let evals = Urs_obs.Slo.evaluate slo in
  let breached = Urs_obs.Slo.any_breached evals in
  let burn =
    match evals with
    | { Urs_obs.Slo.windows = w :: _; _ } :: _ -> w.Urs_obs.Slo.burn_rate
    | _ -> nan
  in
  {
    name = "slo " ^ label;
    value = burn;
    detail =
      Printf.sprintf "burn %.3g, breached %b (expected %b)" burn breached
        expect_breach;
    verdict =
      (if breached = expect_breach then Diagnostics.Ok
       else
         Diagnostics.Suspect
           [
             Printf.sprintf "slo drill %s: breached %b where %b was expected"
               label breached expect_breach;
           ]);
  }

let check_slo_stage () =
  Span.with_ ~name:"urs_doctor_slo" @@ fun () ->
  let error_objective budget =
    {
      Urs_obs.Slo.name = "drill-errors";
      sli = Urs_obs.Slo.Error_rate { metric = Urs_obs.Slo.default_error_metric };
      budget;
    }
  in
  let latency_objective =
    (* p99 < 50ms over the standard request histogram *)
    Urs_obs.Slo.parse_objective_exn "drill-latency: p99 < 50ms"
  in
  let emit_errors ~bad registry =
    let c code =
      Metrics.counter ~registry
        ~labels:[ ("code", code); ("route", "drill") ]
        Urs_obs.Slo.default_error_metric
    in
    Metrics.inc ~by:(float_of_int (1000 - bad)) (c "200");
    if bad > 0 then Metrics.inc ~by:(float_of_int bad) (c "500")
  in
  let emit_latency ~slow registry =
    let h =
      Metrics.histogram ~registry ~buckets:Metrics.default_latency_buckets
        ~labels:[ ("route", "drill") ]
        Urs_obs.Slo.default_latency_metric
    in
    for _ = 1 to 1000 - slow do
      Metrics.observe h 0.004
    done;
    for _ = 1 to slow do
      Metrics.observe h 0.2
    done
  in
  [
    (* 1‰ of errors against a 1% budget: burn 0.1, quiet *)
    slo_drill ~label:"error-rate healthy"
      ~objective:(error_objective 0.01)
      ~emit:(emit_errors ~bad:1) ~expect_breach:false;
    (* 10% of errors against a 1% budget: burn 10, alarm *)
    slo_drill ~label:"error-rate breach"
      ~objective:(error_objective 0.01)
      ~emit:(emit_errors ~bad:100) ~expect_breach:true;
    (* everything at 4ms against p99 < 50ms: quiet *)
    slo_drill ~label:"latency healthy" ~objective:latency_objective
      ~emit:(emit_latency ~slow:0) ~expect_breach:false;
    (* 10% of requests at 200ms against a 1% budget: alarm *)
    slo_drill ~label:"latency breach" ~objective:latency_objective
      ~emit:(emit_latency ~slow:100) ~expect_breach:true;
  ]

(* ---- perf-drift stage ----

   The change-point detector behind `urs report --detect` gates perf
   regressions, so the doctor drills it the way it drills the SLO
   engine: seeded synthetic perf series in which the right answer is
   known — i.i.d. lognormal noise around a stable baseline must stay
   quiet, and the same noise with an injected 2x step must flag within
   a few points of the injection, with a sane magnitude estimate. *)

let drift_noise = 0.05
let drift_step_at = 20

let drift_series ~seed ~n ~step_at ~step =
  let rng = Urs_prob.Rng.create seed in
  let xs = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let level = if i >= step_at then step else 1.0 in
    (* multiplicative noise around the spectral solver's ~2.6 ms scale *)
    xs.(i) <- 0.0026 *. level *. exp (drift_noise *. Urs_prob.Rng.normal rng)
  done;
  xs

let check_perf_drift_stage () =
  Span.with_ ~name:"urs_doctor_perf_drift" @@ fun () ->
  let module Cp = Urs_stats.Changepoint in
  let detect xs = Cp.detect (Array.map log xs) in
  let quiet_check =
    match detect (drift_series ~seed:100 ~n:40 ~step_at:max_int ~step:1.0) with
    | None ->
        {
          name = "perf-drift quiet";
          value = 0.0;
          detail = "no change-point across 40 i.i.d. noise points";
          verdict = Diagnostics.Ok;
        }
    | Some c ->
        {
          name = "perf-drift quiet";
          value = float_of_int c.Cp.start;
          detail =
            Printf.sprintf "false alarm at run %d (stat %.1f)" c.Cp.start
              c.Cp.statistic;
          verdict =
            Diagnostics.Suspect
              [ "perf-drift: detector false-alarmed on i.i.d. noise" ];
        }
  in
  let step_checks =
    let step_at = drift_step_at in
    match detect (drift_series ~seed:200 ~n:30 ~step_at ~step:2.0) with
    | None ->
        [
          {
            name = "perf-drift step";
            value = nan;
            detail =
              Printf.sprintf "missed an injected 2x step at run %d" step_at;
            verdict =
              Diagnostics.Suspect [ "perf-drift: detector missed a 2x step" ];
          };
        ]
    | Some c ->
        let delay = c.Cp.detected - step_at in
        let located = abs (c.Cp.start - step_at) in
        let ratio = exp c.Cp.shift in
        [
          {
            name = "perf-drift step";
            value = float_of_int delay;
            detail =
              Printf.sprintf
                "2x step at run %d: flagged start %d, detected at %d (delay \
                 %d)"
                step_at c.Cp.start c.Cp.detected delay;
            verdict =
              (if c.Cp.direction = Cp.Up && delay <= 3 && located <= 3 then
                 Diagnostics.Ok
               else
                 Diagnostics.Suspect
                   [
                     Printf.sprintf
                       "perf-drift: step flagged %d points late (start off \
                        by %d)"
                       delay located;
                   ]);
          };
          {
            name = "perf-drift magnitude";
            value = ratio;
            detail = Printf.sprintf "estimated step %.2fx (injected 2.00x)" ratio;
            verdict =
              (if ratio > 1.5 && ratio < 2.7 then Diagnostics.Ok
               else
                 Diagnostics.Degraded
                   [
                     Printf.sprintf
                       "perf-drift: step magnitude estimate %.2fx is far \
                        from the injected 2x"
                       ratio;
                   ]);
          };
        ]
  in
  quiet_check :: step_checks

let quick_grid = [ (5, 4.0) ]
let full_grid = [ (5, 4.0); (10, 8.0); (12, 8.0) ]

let quick_sim = { Solver.duration = 30_000.0; replications = 5; seed = 7 }
let full_sim = { Solver.duration = 100_000.0; replications = 5; seed = 7 }

let run ?(quick = false) ?pool () =
  let t0 = Span.now () in
  let grid = if quick then quick_grid else full_grid in
  let sim = if quick then quick_sim else full_sim in
  (* the grid models fan out across the pool, and each model's
     simulation replications nest on the same pool (the pool supports
     nested batches); check order is the grid order either way *)
  Urs_obs.Progress.start ~total:(List.length grid + 5) "doctor:models";
  let checks =
    Span.with_ ~name:"urs_doctor_run" (fun () ->
        let per_model =
          let eval (servers, lambda) =
            let cs =
              check_model ~sim ?pool (paper_model ~servers ~lambda)
            in
            Urs_obs.Progress.tick "doctor:models";
            cs
          in
          match pool with
          | None -> List.map eval grid
          | Some pool -> Urs_exec.Pool.map pool eval grid
        in
        (* warm-up analysis runs after the grid: the N=5 paper model is
           the transient cross-check target in both quick and full mode *)
        let warmup =
          check_warmup ?pool ~sim (paper_model ~servers:5 ~lambda:4.0)
        in
        Urs_obs.Progress.tick "doctor:models";
        (* memory stage: the same paper model, solved once more under
           the runtime probe *)
        let memory =
          check_memory_stage (paper_model ~servers:5 ~lambda:4.0)
        in
        Urs_obs.Progress.tick "doctor:models";
        (* convergence stage: the same model once more, every iterative
           method recorded and graded *)
        let convergence =
          check_convergence_stage (paper_model ~servers:5 ~lambda:4.0)
        in
        Urs_obs.Progress.tick "doctor:models";
        (* slo stage: drill the burn-rate engine on synthetic healthy
           and breached workloads under a fake clock *)
        let slo = check_slo_stage () in
        Urs_obs.Progress.tick "doctor:models";
        (* perf-drift stage: drill the report --detect change-point
           detector on seeded synthetic series with known answers *)
        let perf_drift = check_perf_drift_stage () in
        Urs_obs.Progress.tick "doctor:models";
        List.concat per_model @ warmup @ memory @ convergence @ slo
        @ perf_drift)
  in
  Urs_obs.Progress.finish "doctor:models";
  let verdict =
    Diagnostics.combine (List.map (fun (c : check) -> c.verdict) checks)
  in
  Diagnostics.observe_verdict ~component:"doctor" verdict;
  let count sev =
    List.length
      (List.filter
         (fun (c : check) -> Diagnostics.severity c.verdict = sev)
         checks)
  in
  Ledger.record ~kind:"doctor.run"
    ~params:[ ("quick", Json.Bool quick) ]
    ~wall_seconds:(Span.now () -. t0)
    ~outcome:(Diagnostics.verdict_label verdict)
    ~summary:
      [
        ("checks", Json.Int (List.length checks));
        ("ok", Json.Int (count 0));
        ("degraded", Json.Int (count 1));
        ("suspect", Json.Int (count 2));
      ]
    ();
  { checks; verdict }

let pp_check ppf (c : check) =
  Format.fprintf ppf "[%-8s] %-28s %s"
    (String.uppercase_ascii (Diagnostics.verdict_label c.verdict))
    c.name c.detail

let pp_report ppf r =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_newline ppf ())
    pp_check ppf r.checks;
  Format.fprintf ppf "@.overall: %a" Diagnostics.pp_verdict r.verdict
