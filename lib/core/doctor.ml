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

(* Verdicts are exported as urs_health_status{component} (0 ok,
   1 degraded, 2 suspect) and the spectral probes as
   urs_health_value{check}, both with last-write semantics. *)

let m_status component =
  Metrics.gauge
    ~labels:[ ("component", component) ]
    ~help:"Health verdict of the last check: 0 ok, 1 degraded, 2 suspect"
    "urs_health_status"

let m_value check =
  Metrics.gauge
    ~labels:[ ("check", check) ]
    ~help:"Value of the named numerical-health probe (last check)"
    "urs_health_value"

let observe_verdict ~component v =
  Metrics.set (m_status component) (float_of_int (Diagnostics.severity v))

let observe_spectral (r : Diagnostics.spectral_report) =
  observe_verdict ~component:"spectral" r.verdict;
  Metrics.set (m_value "balance_residual") r.balance_residual;
  Metrics.set (m_value "eigen_residual") r.eigen_residual;
  Metrics.set (m_value "mass_defect") r.mass_defect;
  Metrics.set (m_value "boundary_condition") r.boundary_condition;
  Metrics.set (m_value "stability_margin") r.stability_margin

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
          observe_spectral rep;
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
               is already covered by the exact-vs-sim check. One pass
               serves every point. *)
            let points =
              List.filter
                (fun i -> i < Array.length avg && Float.is_finite avg.(i))
                [ 0; 1; 2; 3; 4 ]
            in
            let profile =
              Mq.Transient.relaxation_profile tr ~initial
                ~times:
                  (List.map (fun i -> (float_of_int i +. 0.5) *. width) points)
            in
            let pairs =
              List.map2
                (fun i (time, expected) -> (time, avg.(i), expected))
                points profile
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
  Urs_obs.Progress.start ~total:(List.length grid + 2) "doctor:models";
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
        (* convergence stage: the same model once more, every iterative
           method recorded and graded *)
        let convergence =
          check_convergence_stage (paper_model ~servers:5 ~lambda:4.0)
        in
        Urs_obs.Progress.tick "doctor:models";
        List.concat per_model @ warmup @ convergence)
  in
  Urs_obs.Progress.finish "doctor:models";
  let verdict =
    Diagnostics.combine (List.map (fun (c : check) -> c.verdict) checks)
  in
  observe_verdict ~component:"doctor" verdict;
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
