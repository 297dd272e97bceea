(* Regression tests for the numerical-health diagnostics and the doctor
   cross-checks: the paper's N=5 configuration must score a clean bill
   of health, and deliberately broken inputs must be flagged. *)

module Diagnostics = Urs_mmq.Diagnostics

let paper_qbd ~servers ~lambda =
  match Urs.Model.qbd (Urs.Doctor.paper_model ~servers ~lambda) with
  | Some q -> q
  | None -> Alcotest.fail "paper model should be phase-type"

let solved ~servers ~lambda =
  match Urs_mmq.Spectral.solve (paper_qbd ~servers ~lambda) with
  | Ok sol -> sol
  | Error e -> Alcotest.failf "solve failed: %a" Urs_mmq.Spectral.pp_error e

(* the headline regression: the N=5 paper model is numerically pristine *)
let test_n5_spectral_health () =
  let rep = Diagnostics.check_spectral (solved ~servers:5 ~lambda:4.0) in
  (match rep.Diagnostics.verdict with
  | Diagnostics.Ok -> ()
  | v ->
      Alcotest.failf "N=5 paper model should be Ok, got %s"
        (Format.asprintf "%a" Diagnostics.pp_verdict v));
  let assert_small name v =
    if not (v >= 0.0 && v < 1e-10) then
      Alcotest.failf "%s = %g not in [0, 1e-10)" name v
  in
  assert_small "balance residual" rep.Diagnostics.balance_residual;
  assert_small "eigenpair residual" rep.Diagnostics.eigen_residual;
  assert_small "mass defect" rep.Diagnostics.mass_defect;
  if rep.Diagnostics.boundary_condition > 1e6 then
    Alcotest.failf "boundary condition %g unexpectedly large"
      rep.Diagnostics.boundary_condition;
  if rep.Diagnostics.stability_margin <= 0.0 then
    Alcotest.fail "stability margin should be positive"

let test_eigen_residuals_per_pair () =
  let sol = solved ~servers:5 ~lambda:4.0 in
  let rs = Urs_mmq.Spectral.eigen_residuals sol in
  Alcotest.(check int)
    "one residual per eigenvalue"
    (Array.length (Urs_mmq.Spectral.eigenvalues sol))
    (Array.length rs);
  Array.iter
    (fun r ->
      if not (r >= 0.0 && r < 1e-10) then
        Alcotest.failf "eigenpair residual %g not in [0, 1e-10)" r)
    rs

let test_verdict_algebra () =
  let open Diagnostics in
  Alcotest.(check int) "ok severity" 0 (severity Ok);
  Alcotest.(check int) "degraded severity" 1 (severity (Degraded [ "a" ]));
  Alcotest.(check int) "suspect severity" 2 (severity (Suspect [ "b" ]));
  (match combine [ Ok; Degraded [ "x" ]; Ok ] with
  | Degraded [ "x" ] -> ()
  | v -> Alcotest.failf "combine: %s" (Format.asprintf "%a" pp_verdict v));
  (match combine [ Degraded [ "x" ]; Suspect [ "y" ] ] with
  | Suspect issues ->
      Alcotest.(check (list string)) "issues concatenated" [ "x"; "y" ] issues
  | v -> Alcotest.failf "combine: %s" (Format.asprintf "%a" pp_verdict v));
  match combine [] with
  | Ok -> ()
  | v -> Alcotest.failf "empty combine: %s" (Format.asprintf "%a" pp_verdict v)

let test_cross_check_scoring () =
  let open Diagnostics in
  (* agreeing exact methods *)
  (match check_exact_pair ~label:"t" 6.2385 (6.2385 +. 1e-12) with
  | _, Ok -> ()
  | _, v -> Alcotest.failf "tiny delta: %s" (Format.asprintf "%a" pp_verdict v));
  (* disagreeing exact methods *)
  (match check_exact_pair ~label:"t" 6.0 7.0 with
  | _, Suspect _ -> ()
  | _, v ->
      Alcotest.failf "gross delta: %s" (Format.asprintf "%a" pp_verdict v));
  (* simulation inside its confidence band *)
  (match
     check_simulation_agreement ~label:"t" ~exact:6.24 ~estimate:6.20
       ~half_width:0.1 ()
   with
  | _, Ok -> ()
  | _, v -> Alcotest.failf "in band: %s" (Format.asprintf "%a" pp_verdict v));
  (* simulation far outside *)
  (match
     check_simulation_agreement ~label:"t" ~exact:6.24 ~estimate:60.0
       ~half_width:0.1 ()
   with
  | _, Suspect _ -> ()
  | _, v -> Alcotest.failf "off by 10x: %s" (Format.asprintf "%a" pp_verdict v));
  (* tight and hopeless confidence intervals *)
  (match check_ci ~label:"t" ~estimate:6.24 ~half_width:0.01 () with
  | _, Ok -> ()
  | _, v -> Alcotest.failf "tight CI: %s" (Format.asprintf "%a" pp_verdict v));
  match check_ci ~label:"t" ~estimate:6.24 ~half_width:10.0 () with
  | _, Suspect _ -> ()
  | _, v -> Alcotest.failf "useless CI: %s" (Format.asprintf "%a" pp_verdict v)

(* the doctor exports the spectral probes of the models it checks *)
let test_health_gauges () =
  ignore
    (Urs.Doctor.check_model (Urs.Doctor.paper_model ~servers:5 ~lambda:4.0));
  (match
     Urs_obs.Metrics.value
       ~labels:[ ("component", "spectral") ]
       "urs_health_status"
   with
  | Some 0.0 -> ()
  | v ->
      Alcotest.failf "health status gauge: %s"
        (match v with Some x -> string_of_float x | None -> "absent"));
  match
    Urs_obs.Metrics.value
      ~labels:[ ("check", "balance_residual") ]
      "urs_health_value"
  with
  | Some v when v >= 0.0 && v < 1e-10 -> ()
  | Some v -> Alcotest.failf "balance residual gauge %g" v
  | None -> Alcotest.fail "missing urs_health_value{check=balance_residual}"

(* analytic-only doctor column: no simulation, so this stays fast while
   covering the spectral / matrix-geometric / approximation triangle *)
let test_check_model_analytic () =
  let checks =
    Urs.Doctor.check_model (Urs.Doctor.paper_model ~servers:5 ~lambda:4.0)
  in
  Alcotest.(check int) "three analytic checks" 3 (List.length checks);
  List.iter
    (fun (c : Urs.Doctor.check) ->
      match c.Urs.Doctor.verdict with
      | Diagnostics.Ok -> ()
      | v ->
          Alcotest.failf "%s should be Ok, got %s" c.Urs.Doctor.name
            (Format.asprintf "%a" Diagnostics.pp_verdict v))
    checks

(* ---- convergence grading ---- *)

(* synthetic iteration traces: samples are (residual, active, deflation) *)
let mk_trace ?max_iter ?(converged = true) ?(solver = "t") samples =
  let arr =
    Array.of_list
      (List.mapi
         (fun i (r, a, d) ->
           {
             Urs_obs.Convergence.iteration = i + 1;
             residual = r;
             shift = 0.0;
             active = a;
             deflation = d;
             t = 0.0;
           })
         samples)
  in
  let rs =
    List.filter Float.is_finite (List.map (fun (r, _, _) -> r) samples)
  in
  {
    Urs_obs.Convergence.seq = 1;
    solver;
    label = "unit";
    started = 0.0;
    finished = 1.0;
    iterations = List.length samples;
    max_iter;
    converged;
    deflations = List.length (List.filter (fun (_, _, d) -> d) samples);
    dropped = 0;
    samples = arr;
    residual_first = (match rs with r :: _ -> r | [] -> nan);
    residual_last = (match List.rev rs with r :: _ -> r | [] -> nan);
    residual_min = List.fold_left Float.min infinity rs;
    residual_mean = 0.0;
    residual_count = List.length rs;
  }

(* a QR-shaped trace: each block's sweeps carry the running sweep total
   as their iteration number, and its deflation repeats the last one *)
let qr_trace ~max_iter blocks =
  let n = List.length blocks in
  let total, _, samples =
    List.fold_left
      (fun (total, k, acc) sweeps ->
        let sweep i = (total + i + 1, 1e-3, n - k, false) in
        let total = total + sweeps in
        let deflation = (total, 0.0, n - k - 1, true) in
        (total, k + 1, acc @ List.init sweeps sweep @ [ deflation ]))
      (0, 0, []) blocks
  in
  {
    (mk_trace ~max_iter ~solver:"qr" []) with
    Urs_obs.Convergence.iterations = total;
    deflations = n;
    samples =
      Array.of_list
        (List.map
           (fun (iteration, residual, active, deflation) ->
             {
               Urs_obs.Convergence.iteration;
               residual;
               shift = 0.0;
               active;
               deflation;
               t = 0.0;
             })
           samples);
  }

let test_check_convergence_grading () =
  let open Diagnostics in
  let expect what want (_, v) =
    let sev = severity v in
    if sev <> want then
      Alcotest.failf "%s: want severity %d, got %s" what want
        (Format.asprintf "%a" pp_verdict v)
  in
  let geo n rate = List.init n (fun i -> (rate ** float_of_int i, 0, false)) in
  (* healthy geometric contraction with plenty of cap headroom *)
  expect "healthy" 0
    (check_convergence ~label:"t" (mk_trace ~max_iter:100 (geo 30 0.5)));
  (* a non-converged trace is suspect on its own *)
  expect "not converged" 2
    (check_convergence ~label:"t" (mk_trace ~converged:false (geo 5 0.5)));
  (* burning >= 80% of the iteration cap is suspect even when converged *)
  let ratio, v =
    check_convergence ~label:"t" (mk_trace ~max_iter:10 (geo 9 0.5))
  in
  if severity v <> 2 then
    Alcotest.failf "cap proximity: got %s" (Format.asprintf "%a" pp_verdict v);
  if abs_float (ratio -. 0.9) > 1e-12 then
    Alcotest.failf "cap ratio: want 0.9, got %g" ratio;
  (* the active/remaining figure may never grow *)
  expect "non-monotone deflation" 2
    (check_convergence ~label:"t"
       (mk_trace [ (0.5, 5, false); (0.4, 6, false) ]));
  (* a flat residual over the stall window is suspect *)
  expect "stagnation" 2
    (check_convergence ~label:"t"
       (mk_trace (List.init 15 (fun _ -> (1e-3, 0, false)))));
  (* ... but only after the last deflation: a stalled-looking prefix
     that ends in a deflation is healthy QR behaviour *)
  expect "stall before deflation" 0
    (check_convergence ~label:"t"
       (mk_trace
          (List.init 14 (fun _ -> (1e-3, 5, false)) @ [ (0.0, 4, true) ])));
  (* slow linear contraction degrades *)
  expect "slow contraction" 1
    (check_convergence ~label:"t" (mk_trace (geo 30 0.999)));
  (* a QR cap bounds the sweeps per eigenvalue: one block at 85 of 100
     sweeps is suspect, with the block's share as the value ... *)
  let ratio, v =
    check_convergence ~label:"t" (qr_trace ~max_iter:100 [ 10; 85; 5 ])
  in
  if severity v <> 2 then
    Alcotest.failf "block at 85/100: got %s"
      (Format.asprintf "%a" pp_verdict v);
  if abs_float (ratio -. 0.85) > 1e-12 then
    Alcotest.failf "block cap ratio: want 0.85, got %g" ratio;
  expect "block at 80/100" 2
    (check_convergence ~label:"t" (qr_trace ~max_iter:100 [ 80 ]));
  (* ... while 120 sweeps in blocks of 40 stay clear of it *)
  expect "120 sweeps over three blocks" 0
    (check_convergence ~label:"t" (qr_trace ~max_iter:100 [ 40; 40; 40 ]));
  (* with a deflation dropped from the ring, the first run counts from
     the first kept sample: 50 kept sweeps, then a deflation *)
  let tr = qr_trace ~max_iter:100 [ 70; 50 ] in
  let kept = Array.sub tr.Urs_obs.Convergence.samples 71 51 in
  let ratio, _ =
    check_convergence ~label:"t"
      { tr with Urs_obs.Convergence.samples = kept; dropped = 71 }
  in
  if abs_float (ratio -. 0.5) > 1e-12 then
    Alcotest.failf "dropped prefix: want 0.5, got %g" ratio

(* ---- the doctor convergence stage ---- *)

let test_convergence_stage_healthy () =
  let checks =
    Urs.Doctor.check_convergence_stage
      (Urs.Doctor.paper_model ~servers:5 ~lambda:4.0)
  in
  List.iter
    (fun solver ->
      if
        not
          (List.exists
             (fun (c : Urs.Doctor.check) ->
               c.Urs.Doctor.name = "N=5 lambda=4 conv/" ^ solver)
             checks)
      then Alcotest.failf "missing conv/%s check" solver)
    [ "qr"; "mg_r"; "brent" ];
  List.iter
    (fun (c : Urs.Doctor.check) ->
      match c.Urs.Doctor.verdict with
      | Diagnostics.Ok -> ()
      | v ->
          Alcotest.failf "%s should be Ok, got %s" c.Urs.Doctor.name
            (Format.asprintf "%a" Diagnostics.pp_verdict v))
    checks

let test_convergence_stage_forced_stall () =
  let checks =
    Urs.Doctor.check_convergence_stage ~qr_max_iter:2
      (Urs.Doctor.paper_model ~servers:5 ~lambda:4.0)
  in
  let qr =
    List.find_opt
      (fun (c : Urs.Doctor.check) -> c.Urs.Doctor.name = "N=5 lambda=4 conv/qr")
      checks
  in
  (match qr with
  | Some c when Diagnostics.severity c.Urs.Doctor.verdict = 2 -> ()
  | Some c ->
      Alcotest.failf "stalled conv/qr should be Suspect, got %s"
        (Format.asprintf "%a" Diagnostics.pp_verdict c.Urs.Doctor.verdict)
  | None -> Alcotest.fail "missing conv/qr check for the stalled solve");
  (* the failed spectral solve itself is reported too *)
  if
    not
      (List.exists
         (fun (c : Urs.Doctor.check) ->
           c.Urs.Doctor.name = "N=5 lambda=4 conv/spectral"
           && Diagnostics.severity c.Urs.Doctor.verdict = 2)
         checks)
  then Alcotest.fail "missing suspect conv/spectral check"

(* models whose QR/QL sweep totals reach or pass 80 % of the
   per-eigenvalue cap of 100 (81, 81, 80, 107, 175 and 136 sweeps) while
   no eigenvalue takes more than 12 *)
let test_convergence_stage_six_models () =
  let mean_op = Urs_prob.Distribution.mean Urs.Model.paper_operative in
  let erlang3 =
    Urs.Model.create ~servers:4 ~arrival_rate:2.0 ~service_rate:1.0
      ~operative:(Urs_prob.Distribution.erlang ~k:3 ~rate:(3.0 /. mean_op))
      ~inoperative:Urs.Model.paper_inoperative_exp ()
  in
  List.iter
    (fun model ->
      List.iter
        (fun (c : Urs.Doctor.check) ->
          match c.Urs.Doctor.verdict with
          | Diagnostics.Ok -> ()
          | v ->
              Alcotest.failf "%s should be Ok, got %s" c.Urs.Doctor.name
                (Format.asprintf "%a" Diagnostics.pp_verdict v))
        (Urs.Doctor.check_convergence_stage model))
    [
      Urs.Doctor.paper_model ~servers:5 ~lambda:3.0;
      Urs.Doctor.paper_model ~servers:5 ~lambda:3.5;
      Urs.Doctor.paper_model ~servers:5 ~lambda:3.9;
      Urs.Doctor.paper_model ~servers:6 ~lambda:4.8;
      Urs.Doctor.paper_model ~servers:8 ~lambda:6.0;
      erlang3;
    ]

(* what `urs doctor --quick`, `make doctor-smoke` and every `urs serve`
   start run: ten checks, each a solve of the run's own, all Ok *)
let test_quick_run () =
  let report = Urs.Doctor.run ~quick:true () in
  Alcotest.(check (list string))
    "check names"
    (List.map
       (fun c -> "N=5 lambda=4 " ^ c)
       [
         "spectral";
         "exact-vs-mg";
         "exact-vs-approx";
         "exact-vs-sim";
         "sim-ci";
         "warmup";
         "sim-vs-transient";
         "conv/qr";
         "conv/mg_r";
         "conv/brent";
       ])
    (List.map (fun (c : Urs.Doctor.check) -> c.Urs.Doctor.name) report.checks);
  match Urs.Doctor.verdict report with
  | Diagnostics.Ok -> ()
  | v ->
      Alcotest.failf "quick run should be Ok, got %s"
        (Format.asprintf "%a" Diagnostics.pp_verdict v)

(* tiny QR budget: the No_convergence payload must survive into the
   Spectral error message, the recorded trace and the ledger record *)
let test_no_convergence_escalation () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    nn = 0 || go 0
  in
  let q = paper_qbd ~servers:5 ~lambda:4.0 in
  Urs_obs.Ledger.set_memory true;
  let res, traces =
    Urs_obs.Convergence.with_recording (fun () ->
        Urs_mmq.Spectral.solve ~max_iter:2 q)
  in
  (match res with
  | Ok _ -> Alcotest.fail "max_iter=2 should not converge"
  | Error (Urs_mmq.Spectral.Numerical msg) ->
      if not (contains msg "did not converge" && contains msg "2 sweeps") then
        Alcotest.failf "payload lost from error message: %S" msg
  | Error e ->
      Alcotest.failf "unexpected error: %a" Urs_mmq.Spectral.pp_error e);
  (match
     List.find_opt
       (fun (tr : Urs_obs.Convergence.trace) ->
         tr.Urs_obs.Convergence.solver = "qr")
       traces
   with
  | Some tr ->
      Alcotest.(check bool)
        "trace not converged" false tr.Urs_obs.Convergence.converged;
      Alcotest.(check int) "iterations" 2 tr.Urs_obs.Convergence.iterations;
      Alcotest.(check (option int))
        "cap recorded" (Some 2) tr.Urs_obs.Convergence.max_iter
  | None -> Alcotest.fail "no qr trace recorded for the failed solve");
  (match
     List.find_opt
       (fun (r : Urs_obs.Ledger.record) ->
         r.Urs_obs.Ledger.kind = "convergence"
         && r.Urs_obs.Ledger.outcome = "no-convergence")
       (Urs_obs.Ledger.recent ())
   with
  | Some _ -> ()
  | None -> Alcotest.fail "no no-convergence ledger record");
  Urs_obs.Ledger.set_memory false

let test_near_saturation_degrades () =
  (* utilization ~0.9996: stable, but the margin probe must complain *)
  let q = paper_qbd ~servers:5 ~lambda:4.993 in
  match Urs_mmq.Spectral.solve q with
  | Error e ->
      Alcotest.failf "near-saturation solve failed: %a"
        Urs_mmq.Spectral.pp_error e
  | Ok sol -> (
      let rep = Diagnostics.check_spectral sol in
      match rep.Diagnostics.verdict with
      | Diagnostics.Ok ->
          Alcotest.failf "margin %g should not be Ok"
            rep.Diagnostics.stability_margin
      | Diagnostics.Degraded _ | Diagnostics.Suspect _ -> ())

let () =
  Alcotest.run "urs_doctor"
    [
      ( "diagnostics",
        [
          Alcotest.test_case "N=5 paper model is Ok" `Quick
            test_n5_spectral_health;
          Alcotest.test_case "per-eigenpair residuals" `Quick
            test_eigen_residuals_per_pair;
          Alcotest.test_case "verdict algebra" `Quick test_verdict_algebra;
          Alcotest.test_case "cross-check scoring" `Quick
            test_cross_check_scoring;
          Alcotest.test_case "health gauges" `Quick test_health_gauges;
          Alcotest.test_case "near saturation degrades" `Quick
            test_near_saturation_degrades;
          Alcotest.test_case "convergence grading" `Quick
            test_check_convergence_grading;
        ] );
      ( "doctor",
        [
          Alcotest.test_case "analytic cross-checks" `Quick
            test_check_model_analytic;
          Alcotest.test_case "convergence stage healthy" `Quick
            test_convergence_stage_healthy;
          Alcotest.test_case "convergence stage forced stall" `Quick
            test_convergence_stage_forced_stall;
          Alcotest.test_case "no-convergence escalation" `Quick
            test_no_convergence_escalation;
          Alcotest.test_case "convergence stage Ok on six models" `Quick
            test_convergence_stage_six_models;
          Alcotest.test_case "quick run" `Quick test_quick_run;
        ] );
    ]
