(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Figures 3-9 plus the Section-2 goodness-of-fit numbers),
   cross-validates the three solvers against each other and against
   simulation, and times the solvers, the simulator and the service.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig5    # one section
     dune exec bench/main.exe -- list    # section names

   Absolute numbers for the Section-2 statistics depend on the synthetic
   data seed; the paper's value is printed alongside each result so the
   comparison is explicit. *)

module D = Urs_prob.Distribution
module Metrics = Urs_obs.Metrics
module Span = Urs_obs.Span
module Export = Urs_obs.Export
module Json = Urs_obs.Json

let paper_op = Urs.Model.paper_operative
let paper_inop_exp = Urs.Model.paper_inoperative_exp

let header title =
  Format.printf "@.==== %s ====@.@." title;
  Format.print_flush ()

let flush () = Format.print_flush ()

let model ~servers ~lambda =
  Urs.Model.create ~servers ~arrival_rate:lambda ~service_rate:1.0
    ~operative:paper_op ~inoperative:paper_inop_exp ()

let mean_jobs ?strategy m =
  match Urs.Solver.evaluate ?strategy m with
  | Ok p -> Some p.Urs.Solver.mean_jobs
  | Error _ -> None

(* ---- Section 2: the data set, its fits, and the KS decisions ---- *)

let dataset = lazy (Urs_dataset.Generate.generate Urs_dataset.Generate.default)

let report =
  lazy
    (match Urs_dataset.Pipeline.analyze (Lazy.force dataset) with
    | Ok r -> r
    | Error e ->
        Format.kasprintf failwith "pipeline failed: %a" Urs_prob.Fit.pp_error e)

let section_ks () =
  header "Section 2 — Kolmogorov-Smirnov goodness-of-fit (synthetic Sun log)";
  let r = Lazy.force report in
  Format.printf "%a@.@." Urs_dataset.Clean.pp_summary r.Urs_dataset.Pipeline.cleaned;
  let side label s ~paper_exp_d ~paper_h2_d =
    let open Urs_dataset.Pipeline in
    Format.printf "%s periods: mean=%.4f  C²=%.3f@." label s.sample_moments.(0)
      s.scv;
    Format.printf "  exponential fit:      %a   (paper: D=%s)@."
      Urs_prob.Ks.pp_decision s.exponential_ks paper_exp_d;
    Format.printf "  hyperexponential fit: %a   (paper: D=%s)@."
      Urs_prob.Ks.pp_decision s.h2_ks paper_h2_d;
    Format.printf "  fitted H2: %a@." Urs_prob.Hyperexponential.pp s.h2_fit
  in
  side "operative" r.Urs_dataset.Pipeline.operative ~paper_exp_d:"0.4742 REJECT"
    ~paper_h2_d:"0.1412 ACCEPT";
  Format.printf "  paper's fit: H2(w=0.7246,rate=0.1663; w=0.2754,rate=0.0091)@.@.";
  side "inoperative" r.Urs_dataset.Pipeline.inoperative
    ~paper_exp_d:"(fails, not badly)" ~paper_h2_d:"0.1832 ACCEPT";
  Format.printf "  paper's fit: H2(w=0.9303,rate=25.0043; w=0.0697,rate=1.6346)@.";
  (* the paper also notes that a plain exponential with the mean of the
     H2's dominant phase (0.04) passes at 5% for the inoperative side *)
  let inop = r.Urs_dataset.Pipeline.inoperative in
  let exp_dom = Urs_prob.Exponential.create 25.0043 in
  let pts =
    Urs_stats.Histogram.empirical_cdf_points
      inop.Urs_dataset.Pipeline.histogram
  in
  let dec =
    Urs_prob.Ks.test_points ~significance:0.05
      ~hypothesized:(Urs_prob.Exponential.cdf exp_dom)
      ~points:pts
  in
  Format.printf
    "  exponential with mean 0.04 (dominant phase): %a   (paper: passes at 5%%)@."
    Urs_prob.Ks.pp_decision dec;
  (* bootstrap confidence intervals for the operative fit — beyond the
     paper, which reports point estimates only *)
  (match
     Urs_dataset.Bootstrap.h2_fit ~replicates:100 ~seed:3
       r.Urs_dataset.Pipeline.cleaned.Urs_dataset.Clean.operative_periods
   with
  | Ok b ->
      Format.printf "@.%a@." Urs_dataset.Bootstrap.pp_h2_intervals b
  | Error e ->
      Format.printf "@.bootstrap failed: %a@." Urs_prob.Fit.pp_error e);
  flush ()

(* ---- Figures 3 and 4: empirical vs fitted densities ---- *)

let density_section ~title ~upper side =
  header title;
  let open Urs_dataset.Pipeline in
  let rows =
    density_table side.histogram
      (Urs_prob.Hyperexponential.pdf side.h2_fit)
      ~upper
  in
  Format.printf "  %12s  %14s  %14s@." "x (midpoint)" "empirical d_i"
    "H2 fit f(x)";
  List.iter
    (fun (x, emp, fit) -> Format.printf "  %12.4f  %14.6f  %14.6f@." x emp fit)
    rows;
  flush ()

let section_fig3 () =
  let r = Lazy.force report in
  density_section
    ~title:"Figure 3 — densities of operative periods (0-250)"
    ~upper:250.0 r.Urs_dataset.Pipeline.operative

let section_fig4 () =
  let r = Lazy.force report in
  density_section
    ~title:"Figure 4 — densities of inoperative periods (0-1.2)"
    ~upper:1.2 r.Urs_dataset.Pipeline.inoperative

(* ---- Figure 5: cost against N ---- *)

let section_fig5 () =
  header "Figure 5 — cost C = 4L + N against number of servers";
  Format.printf
    "(α1=0.7246, ξ1=0.1663, ξ2=0.0091, η=25, µ=1, c1=4, c2=1)@.@.";
  let lambdas = [ 7.0; 8.0; 8.5 ] in
  Format.printf "  %4s" "N";
  List.iter (fun l -> Format.printf "  %12s" (Printf.sprintf "C (λ=%.1f)" l)) lambdas;
  Format.printf "@.";
  for n = 9 to 17 do
    Format.printf "  %4d" n;
    List.iter
      (fun lambda ->
        match mean_jobs (model ~servers:n ~lambda) with
        | Some l ->
            Format.printf "  %12.2f"
              (Urs.Cost.of_performance Urs.Cost.paper_params ~servers:n
                 {
                   Urs.Solver.strategy_used = Urs.Solver.Exact;
                   mean_jobs = l;
                   mean_response = l /. lambda;
                   utilization = 0.0;
                   dominant_eigenvalue = None;
                   confidence_half_width = None;
                 })
        | None -> Format.printf "  %12s" "-")
      lambdas;
    Format.printf "@.";
    flush ()
  done;
  Format.printf "@.optimal N per arrival rate (paper: 11, 12, 13):@.";
  List.iter
    (fun lambda ->
      match
        Urs.Cost.optimal_servers ~n_max:25 (model ~servers:10 ~lambda)
          Urs.Cost.paper_params
      with
      | Ok (n, c) -> Format.printf "  λ=%.1f -> N*=%d (C=%.2f)@." lambda n c
      | Error e -> Format.printf "  λ=%.1f -> %a@." lambda Urs.Solver.pp_error e)
    lambdas;
  flush ()

(* ---- Figure 6: L against C² of operative periods ---- *)

let section_fig6 () =
  header "Figure 6 — average queue size against coefficient of variation";
  Format.printf "(N=10, η=0.2, ξ=0.0289; C²=0 by simulation, rest exact)@.@.";
  let base lambda =
    Urs.Model.create ~servers:10 ~arrival_rate:lambda ~service_rate:1.0
      ~operative:(D.exponential ~rate:0.0289)
      ~inoperative:(D.exponential ~rate:0.2) ()
  in
  let lambdas = [ 8.5; 8.6 ] in
  let scvs = [ 0.0; 1.0; 2.0; 4.0; 6.0; 8.0; 10.0; 12.0; 14.0; 16.0; 18.0 ] in
  Format.printf "  %6s" "C²";
  List.iter (fun l -> Format.printf "  %14s" (Printf.sprintf "L (λ=%.1f)" l)) lambdas;
  Format.printf "@.";
  List.iter
    (fun scv ->
      Format.printf "  %6.1f" scv;
      List.iter
        (fun lambda ->
          let strategy =
            if scv <= 0.0 then
              (* deterministic operative periods: only the simulator
                 applies, as in the paper *)
              Some
                (Urs.Solver.Simulation
                   { Urs.Solver.duration = 150_000.0; replications = 3; seed = 42 })
            else None
          in
          match
            Urs.Sweep.over_operative_scv ?strategy (base lambda)
              ~pinned_rate:0.1663 ~values:[ scv ]
          with
          | [ (_, perf) ] -> Format.printf "  %14.2f" perf.Urs.Solver.mean_jobs
          | _ -> Format.printf "  %14s" "-")
        lambdas;
      Format.printf "@.";
      flush ())
    scvs;
  Format.printf
    "@.(paper: both curves increase with C²; λ=8.5 from ~50 to ~180,@.\
     λ=8.6 from ~70 to ~400 over C² in [0, 18])@.";
  flush ()

(* ---- Figure 7: L against mean repair time ---- *)

let section_fig7 () =
  header "Figure 7 — average queue size against average repair time";
  Format.printf "(N=10, λ=8, ξ=0.0289: exponential vs hyperexponential op periods)@.@.";
  let exp_model =
    Urs.Model.create ~servers:10 ~arrival_rate:8.0 ~service_rate:1.0
      ~operative:(D.exponential ~rate:0.0289)
      ~inoperative:(D.exponential ~rate:1.0) ()
  in
  let h2_model =
    Urs.Model.create ~servers:10 ~arrival_rate:8.0 ~service_rate:1.0
      ~operative:paper_op
      ~inoperative:(D.exponential ~rate:1.0) ()
  in
  Format.printf "  %6s  %14s  %14s@." "1/η" "L (exponential)" "L (hyperexp)";
  List.iter
    (fun repair ->
      let get m =
        match Urs.Sweep.over_repair_times m ~values:[ repair ] with
        | [ (_, p) ] -> Some p.Urs.Solver.mean_jobs
        | _ -> None
      in
      match (get exp_model, get h2_model) with
      | Some a, Some b -> Format.printf "  %6.2f  %14.3f  %14.3f@." repair a b
      | _ -> Format.printf "  %6.2f  %14s  %14s@." repair "-" "-")
    (Urs.Sweep.linspace 1.0 5.0 9);
  Format.printf
    "@.(paper: exponential 10->20, hyperexponential 10->26; gap widens@.\
     with repair time — the exponential assumption grows over-optimistic)@.";
  flush ()

(* ---- Figure 8: exact vs approximation under increasing load ---- *)

let section_fig8 () =
  header "Figure 8 — exact and approximate solutions: increasing load";
  Format.printf "(N=10, fitted operative H2, η=25)@.@.";
  let env_capacity =
    (* average operative servers: N * availability *)
    10.0 *. (34.6209 /. (34.6209 +. 0.04))
  in
  Format.printf "  %7s  %8s  %12s  %12s  %10s@." "load" "λ" "L exact"
    "L approx" "rel.err";
  List.iter
    (fun load ->
      let lambda = load *. env_capacity in
      let m = model ~servers:10 ~lambda in
      let exact = mean_jobs m in
      let approx = mean_jobs ~strategy:Urs.Solver.Approximate m in
      match (exact, approx) with
      | Some e, Some a ->
          Format.printf "  %7.3f  %8.4f  %12.3f  %12.3f  %9.1f%%@." load lambda
            e a
            (100.0 *. abs_float (a -. e) /. e)
      | _ -> Format.printf "  %7.3f  %8.4f  %12s  %12s  %10s@." load lambda "-" "-" "-";
      flush ())
    [ 0.89; 0.90; 0.91; 0.92; 0.93; 0.94; 0.95; 0.96; 0.97; 0.98; 0.99 ];
  Format.printf
    "@.(paper: the two curves converge as the load approaches 1 —@.\
     the approximation is asymptotically exact in heavy traffic)@.";
  flush ()

(* ---- Figure 9: response time against N ---- *)

let section_fig9 () =
  header "Figure 9 — average response time against number of servers";
  Format.printf "(fitted operative H2, η=25, λ=7.5)@.@.";
  let m = model ~servers:8 ~lambda:7.5 in
  Format.printf "  %4s  %12s  %12s@." "N" "W exact" "W approx";
  for n = 8 to 13 do
    let mn = Urs.Model.with_servers m n in
    let exact = Urs.Solver.evaluate mn in
    let approx = Urs.Solver.evaluate ~strategy:Urs.Solver.Approximate mn in
    (match (exact, approx) with
    | Ok e, Ok a ->
        Format.printf "  %4d  %12.4f  %12.4f@." n e.Urs.Solver.mean_response
          a.Urs.Solver.mean_response
    | _ -> Format.printf "  %4d  %12s  %12s@." n "-" "-");
    flush ()
  done;
  (match Urs.Capacity.min_servers_for_response m ~target:1.5 with
  | Ok (n, _) ->
      Format.printf "@.minimum N ensuring W <= 1.5: %d   (paper: 9)@." n
  | Error e -> Format.printf "@.capacity search failed: %a@." Urs.Solver.pp_error e);
  flush ()

(* ---- Ablation: the three solvers against each other and simulation ---- *)

let section_ablation () =
  header "Ablation — solver agreement (spectral vs matrix-geometric vs simulation)";
  Format.printf "  %3s %6s  %12s  %12s  %12s  %10s@." "N" "λ" "spectral"
    "matrix-geo" "simulation" "max rel Δ";
  List.iter
    (fun (servers, lambda) ->
      let m = model ~servers ~lambda in
      let sp = mean_jobs m in
      let mg = mean_jobs ~strategy:Urs.Solver.Matrix_geometric m in
      let sim =
        mean_jobs
          ~strategy:
            (Urs.Solver.Simulation
               { Urs.Solver.duration = 100_000.0; replications = 3; seed = 9 })
          m
      in
      match (sp, mg, sim) with
      | Some a, Some b, Some c ->
          let rel = Float.max (abs_float (a -. b) /. a) (abs_float (a -. c) /. a) in
          Format.printf "  %3d %6.2f  %12.4f  %12.4f  %12.4f  %9.2e@." servers
            lambda a b c rel
      | _ -> Format.printf "  %3d %6.2f  (failed)@." servers lambda;
      flush ())
    [ (2, 1.5); (4, 3.0); (6, 4.5); (8, 6.0); (10, 8.0) ];
  Format.printf
    "@.(spectral and matrix-geometric agree to ~1e-8; simulation to@.\
     sampling accuracy — two independent exact methods plus a@.\
     behavioural oracle)@.";
  flush ()

(* ---- extensions beyond the paper ---- *)

let section_extensions () =
  header "Extensions — phase-type periods, repair crews, transient analysis";
  (* 1. general phase-type operative periods, validated by simulation *)
  Format.printf "Erlang-3 operative periods (exact via PH environment vs simulation):@.";
  let erl =
    Urs.Model.create ~servers:4 ~arrival_rate:3.0 ~service_rate:1.0
      ~operative:(D.erlang ~k:3 ~rate:0.1)
      ~inoperative:(D.exponential ~rate:0.2) ()
  in
  (match
     ( Urs.Solver.evaluate erl,
       Urs.Solver.evaluate
         ~strategy:
           (Urs.Solver.Simulation
              { Urs.Solver.duration = 80_000.0; replications = 3; seed = 13 })
         erl )
   with
  | Ok e, Ok s ->
      Format.printf "  exact L = %.4f   simulated L = %.4f ± %.3f@."
        e.Urs.Solver.mean_jobs s.Urs.Solver.mean_jobs
        (Option.value ~default:0.0 s.Urs.Solver.confidence_half_width)
  | _ -> Format.printf "  (failed)@.");
  flush ();
  (* 2. limited repair crews *)
  Format.printf
    "@.Limited repair crews (8 servers, λ=5, fitted op law, repair mean 2):@.";
  Format.printf "  %6s  %10s  %10s@." "crews" "capacity" "L";
  List.iter
    (fun crews ->
      let m =
        Urs.Model.create ?repair_crews:crews ~servers:8 ~arrival_rate:5.0
          ~service_rate:1.0 ~operative:paper_op
          ~inoperative:(D.exponential ~rate:0.5) ()
      in
      let v = Urs.Model.stability m in
      let label = match crews with None -> "all" | Some c -> string_of_int c in
      match Urs.Solver.evaluate m with
      | Ok p ->
          Format.printf "  %6s  %10.4f  %10.4f@." label
            v.Urs_mmq.Stability.effective_capacity p.Urs.Solver.mean_jobs
      | Error _ ->
          Format.printf "  %6s  %10.4f  %10s@." label
            v.Urs_mmq.Stability.effective_capacity "unstable")
    [ Some 1; Some 2; None ];
  flush ();
  (* 3. transient build-up from a cold start *)
  Format.printf "@.Cold-start build-up, N=4, λ=3 (uniformization):@.";
  let m =
    Urs.Model.create ~servers:4 ~arrival_rate:3.0 ~service_rate:1.0
      ~operative:paper_op ~inoperative:paper_inop_exp ()
  in
  (match Urs.Model.qbd m with
  | None -> Format.printf "  (no phase-type model)@."
  | Some q -> (
      match Urs_mmq.Transient.create ~levels:150 q with
      | Error e -> Format.printf "  %a@." Urs_mmq.Transient.pp_error e
      | Ok t ->
          let init = Urs_mmq.Transient.empty_all_operative t in
          let profile =
            Urs_mmq.Transient.relaxation_profile t ~initial:init
              ~times:[ 1.0; 5.0; 20.0; 100.0 ]
          in
          Format.printf "  %8s  %10s@." "t" "L(t)";
          List.iter (fun (tm, l) -> Format.printf "  %8.1f  %10.4f@." tm l) profile;
          (match Urs.Solver.evaluate m with
          | Ok p -> Format.printf "  %8s  %10.4f@." "inf" p.Urs.Solver.mean_jobs
          | Error _ -> ())));
  flush ()

(* ---- bench-regression gate: the paper's N=5 model ---- *)

(* per-solver wall + GC stats from the gate sections (n5, sim),
   consumed by the perf-history append in the driver (survives the
   per-section Metrics.reset) *)
let gate_stats : (string * Urs_obs.Perf.solver_stat) list ref = ref []

let remove_gate_stat name =
  gate_stats := List.filter (fun (n, _) -> n <> name) !gate_stats

let section_n5 () =
  header "N=5 paper model — solver wall time (bench-regression gate)";
  Format.printf "(N=5, λ=4, fitted operative H2, η=25 — the doctor's quick model)@.@.";
  List.iter remove_gate_stat [ "spectral"; "mg"; "approx" ];
  let m = model ~servers:5 ~lambda:4.0 in
  let time_solver name strategy iters =
    (* one warm-up solve so one-off initialization stays out of the gate *)
    ignore (Urs.Solver.evaluate ~strategy m);
    let g0 = Urs_obs.Runtime.sample () in
    let t0 = Span.now () in
    for _ = 1 to iters do
      match Urs.Solver.evaluate ~strategy m with
      | Ok p -> ignore p.Urs.Solver.mean_jobs
      | Error _ -> ()
    done;
    let per = (Span.now () -. t0) /. float_of_int iters in
    let d = Urs_obs.Runtime.delta ~before:g0 ~after:(Urs_obs.Runtime.sample ()) in
    let per_iter w = w /. float_of_int iters in
    let stat =
      {
        Urs_obs.Perf.seconds = per;
        minor_words = per_iter d.Urs_obs.Runtime.d_minor_words;
        promoted_words = per_iter d.Urs_obs.Runtime.d_promoted_words;
        major_words = per_iter d.Urs_obs.Runtime.d_major_words;
      }
    in
    gate_stats := (name, stat) :: !gate_stats;
    Metrics.set
      (Metrics.gauge
         ~labels:[ ("solver", name) ]
         ~help:"Mean wall seconds per solve of the N=5 paper model"
         "urs_bench_n5_seconds")
      per;
    Metrics.set
      (Metrics.gauge
         ~labels:[ ("solver", name) ]
         ~help:"Minor-heap words allocated per solve of the N=5 paper model"
         "urs_bench_n5_minor_words")
      stat.Urs_obs.Perf.minor_words;
    Format.printf "  %-10s  %10.3f ms/solve  %10.0f kw/solve  (%d iterations)@."
      name (1e3 *. per)
      (stat.Urs_obs.Perf.minor_words /. 1e3)
      iters;
    flush ()
  in
  time_solver "spectral" Urs.Solver.Exact 40;
  time_solver "mg" Urs.Solver.Matrix_geometric 40;
  time_solver "approx" Urs.Solver.Approximate 400;
  Format.printf
    "@.(make bench-gate appends this run to a copy of BENCH_history.jsonl@.\
     and fails when `urs report --max-ratio 2.0` finds spectral more than@.\
     2x slower than its best committed run)@.";
  flush ()

(* ---- simulation engine throughput gate: the Figure-8 workload ---- *)

let section_sim () =
  header "Simulation engine — events/sec on the Figure-8 workload";
  Format.printf
    "(N=10, fitted operative H2, η=25, 92%% load; 4 replications, no \
     probes)@.@.";
  remove_gate_stat "sim";
  (* same environment capacity as the Figure-8 section: N * availability *)
  let env_capacity = 10.0 *. (34.6209 /. (34.6209 +. 0.04)) in
  let lambda = 0.92 *. env_capacity in
  let cfg =
    {
      Urs_sim.Server_farm.servers = 10;
      lambda;
      mu = 1.0;
      operative = paper_op;
      inoperative = paper_inop_exp;
      repair_crews = None;
    }
  in
  (* split-stream seeds, exactly like Replicate.run *)
  let master = Urs_prob.Rng.create 2024 in
  let seeds = Array.init 4 (fun _ -> Urs_prob.Rng.split_seed master) in
  let events_total () =
    Option.value ~default:0.0 (Metrics.value "urs_sim_events_total")
  in
  (* warm-up run so one-off initialization stays out of the measurement *)
  ignore
    (Urs_sim.Server_farm.run ~seed:seeds.(0) ~track_responses:false
       ~duration:2_000.0 cfg);
  let gc_capture = Urs_obs.Runtime.start_events () in
  if gc_capture then Urs_obs.Runtime.clear_events ();
  let e0 = events_total () in
  let g0 = Urs_obs.Runtime.sample () in
  let t0 = Span.now () in
  Array.iter
    (fun seed ->
      ignore
        (Urs_sim.Server_farm.run ~seed ~track_responses:false
           ~duration:50_000.0 cfg))
    seeds;
  let wall = Span.now () -. t0 in
  let d = Urs_obs.Runtime.delta ~before:g0 ~after:(Urs_obs.Runtime.sample ()) in
  let gc_seconds =
    if gc_capture then begin
      let s =
        List.fold_left
          (fun acc (sl : Urs_obs.Runtime.slice) -> acc +. sl.duration_s)
          0.0
          (Urs_obs.Runtime.gc_slices ())
      in
      Urs_obs.Runtime.stop_events ();
      Some s
    end
    else None
  in
  let events = events_total () -. e0 in
  let per_event w = if events > 0.0 then w /. events else nan in
  let stat =
    {
      Urs_obs.Perf.seconds = per_event wall;
      minor_words = per_event d.Urs_obs.Runtime.d_minor_words;
      promoted_words = per_event d.Urs_obs.Runtime.d_promoted_words;
      major_words = per_event d.Urs_obs.Runtime.d_major_words;
    }
  in
  gate_stats := ("sim", stat) :: !gate_stats;
  let gauge name help = Metrics.gauge ~help name in
  Metrics.set
    (gauge "urs_bench_sim_events_per_sec"
       "Simulation events per wall-clock second on the Figure-8 workload")
    (events /. wall);
  Metrics.set
    (gauge "urs_bench_sim_minor_words_per_event"
       "Minor-heap words allocated per simulation event")
    stat.Urs_obs.Perf.minor_words;
  Metrics.set
    (gauge "urs_bench_sim_seconds"
       "Wall seconds for the Figure-8 simulation workload")
    wall;
  Format.printf "  events processed     %12.0f@." events;
  Format.printf "  wall time            %12.3f s@." wall;
  Format.printf "  events/sec           %12.0f@." (events /. wall);
  Format.printf "  minor words/event    %12.2f@." stat.Urs_obs.Perf.minor_words;
  Format.printf "  promoted words/event %12.4f@."
    stat.Urs_obs.Perf.promoted_words;
  Format.printf "  major words/event    %12.4f@." stat.Urs_obs.Perf.major_words;
  Format.printf "  minor collections    %12d@."
    d.Urs_obs.Runtime.d_minor_collections;
  (match gc_seconds with
  | Some s -> Format.printf "  GC pause seconds     %12.3f@." s
  | None -> Format.printf "  GC pause seconds     %12s@." "(capture off)");
  Format.printf
    "@.(CI's sim-perf job runs this section twice against a scratch@.\
     history and fails when seconds/event regresses beyond --max-ratio)@.";
  flush ()

(* ---- serve: request throughput and tail latency over HTTP ---- *)

let section_serve () =
  header "Serve — HTTP request throughput and p99 (in-process server)";
  Format.printf
    "(sequential HTTP/1.0 server on an ephemeral port; closed loop,@.\
    \ 1 worker, no think time; quantiles from the latency histogram)@.@.";
  List.iter remove_gate_stat [ "serve_healthz"; "serve_solve" ];
  let cache = Urs.Solve_cache.create () in
  let server =
    Urs_obs.Http.start ~port:0 ~routes:Urs_obs.Routes.standard
      ~post_routes:[ Urs.Solve_service.post_route ~cache () ]
      ()
  in
  let port = Urs_obs.Http.port server in
  Fun.protect ~finally:(fun () -> Urs_obs.Http.stop server) @@ fun () ->
  Format.printf "  %-14s  %9s  %10s  %10s  %10s  %6s@." "target" "requests"
    "req/s" "p50 (ms)" "p99 (ms)" "errors";
  let bench ~name ~target ?(meth = "GET") ?body () =
    (* warm-up request: connection path, and for POST /solve the cache
       fill, stay out of the measurement — the gate row is the cached
       steady state *)
    ignore (Urs_obs.Http.request ~meth ?body ~port target);
    let g0 = Urs_obs.Runtime.sample () in
    let r =
      Urs.Loadgen.run ~meth ?body ~port ~target ~duration_s:2.0
        ~mode:(Urs.Loadgen.Closed { workers = 1; think_s = 0.0 })
        ()
    in
    let d = Urs_obs.Runtime.delta ~before:g0 ~after:(Urs_obs.Runtime.sample ()) in
    let per w =
      if r.Urs.Loadgen.requests > 0 then
        w /. float_of_int r.Urs.Loadgen.requests
      else nan
    in
    let stat =
      {
        Urs_obs.Perf.seconds = per r.Urs.Loadgen.wall_s;
        minor_words = per d.Urs_obs.Runtime.d_minor_words;
        promoted_words = per d.Urs_obs.Runtime.d_promoted_words;
        major_words = per d.Urs_obs.Runtime.d_major_words;
      }
    in
    gate_stats := (name, stat) :: !gate_stats;
    let gauge metric help =
      Metrics.gauge ~labels:[ ("target", target) ] ~help metric
    in
    Metrics.set
      (gauge "urs_bench_serve_requests_per_sec"
         "Closed-loop single-worker requests per second")
      r.Urs.Loadgen.throughput;
    Metrics.set
      (gauge "urs_bench_serve_p99_seconds"
         "Client-observed p99 request latency")
      r.Urs.Loadgen.p99_s;
    Format.printf "  %-14s  %9d  %10.0f  %10.3f  %10.3f  %6d@." target
      r.Urs.Loadgen.requests r.Urs.Loadgen.throughput
      (1e3 *. r.Urs.Loadgen.p50_s)
      (1e3 *. r.Urs.Loadgen.p99_s)
      (r.Urs.Loadgen.errors + r.Urs.Loadgen.timeouts);
    flush ()
  in
  bench ~name:"serve_healthz" ~target:"/healthz" ();
  bench ~name:"serve_solve" ~target:"/solve" ~meth:"POST"
    ~body:{|{"scenario":"paper"}|} ();
  Format.printf
    "@.(both rows land in BENCH_history.jsonl as ungated trend rows —@.\
     `urs report` plots them but only spectral/sim can breach the gate)@.";
  flush ()

(* ---- query engine: ledger scan throughput, cold vs indexed ---- *)

let section_query () =
  header "Query engine — ledger scan throughput, cold vs indexed";
  Format.printf
    "(synthetic two-kind ledger; the filter rules out half the records,@.\
    \ so the sidecar index can seek over their blocks without parsing)@.@.";
  List.iter remove_gate_stat [ "query_cold"; "query_indexed" ];
  let path = Filename.temp_file "urs_bench_query" ".jsonl" in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; Urs_obs.Ledger_store.index_path path ])
  @@ fun () ->
  let n = 200_000 in
  let line seq kind =
    Json.to_string
      (Json.Obj
         [ ("schema", Json.String "urs-ledger/2"); ("seq", Json.Int seq);
           ("time", Json.Float (float_of_int seq));
           ("kind", Json.String kind);
           ("wall_seconds", Json.Float (1e-3 *. float_of_int (seq mod 97)));
           ("outcome", Json.String "ok") ])
  in
  (* first half one kind, second half the other — long homogeneous runs,
     like a real bench ledger's per-section record bursts *)
  let st = Urs_obs.Ledger_store.open_ ~truncate:true ~flush_every:1024 path in
  for i = 1 to n do
    let kind = if i <= n / 2 then "solve" else "http.access" in
    Urs_obs.Ledger_store.write st ~kind ~time:(float_of_int i) (line i kind)
  done;
  Urs_obs.Ledger_store.close st;
  let filter = { Urs_obs.Query.no_filter with kind = Some "solve" } in
  let aggs =
    [ Urs_obs.Query.Count;
      Urs_obs.Query.Quantile (0.99, Urs_obs.Query.Wall_seconds) ]
  in
  Format.printf "  %-10s  %10s  %12s  %10s  %10s@." "mode" "matched"
    "records/s" "seeked" "wall (s)";
  let bench ~name ~use_index =
    let g0 = Urs_obs.Runtime.sample () in
    match Urs_obs.Query.run ~use_index ~filter ~aggs path with
    | Error msg -> Format.printf "  %-10s  query failed: %s@." name msg
    | Ok r ->
        let d =
          Urs_obs.Runtime.delta ~before:g0 ~after:(Urs_obs.Runtime.sample ())
        in
        let scanned = r.Urs_obs.Query.parsed + r.Urs_obs.Query.seeked in
        let per_sec =
          float_of_int scanned /. r.Urs_obs.Query.elapsed_s
        in
        let per w = w /. float_of_int (max 1 scanned) in
        let stat =
          {
            Urs_obs.Perf.seconds = per r.Urs_obs.Query.elapsed_s;
            minor_words = per d.Urs_obs.Runtime.d_minor_words;
            promoted_words = per d.Urs_obs.Runtime.d_promoted_words;
            major_words = per d.Urs_obs.Runtime.d_major_words;
          }
        in
        gate_stats := (name, stat) :: !gate_stats;
        Metrics.set
          (Metrics.gauge
             ~labels:[ ("mode", if use_index then "indexed" else "cold") ]
             ~help:"Ledger records scanned per second by the query engine"
             "urs_bench_query_records_per_sec")
          per_sec;
        Format.printf "  %-10s  %10d  %12.0f  %10d  %10.3f@." name
          r.Urs_obs.Query.matched per_sec r.Urs_obs.Query.seeked
          r.Urs_obs.Query.elapsed_s;
        flush ()
  in
  bench ~name:"query_cold" ~use_index:false;
  bench ~name:"query_indexed" ~use_index:true;
  Format.printf
    "@.(both rows land in BENCH_history.jsonl as ungated trend rows —@.\
     seconds is per scanned record; the indexed run should seek over@.\
     roughly half the file)@.";
  flush ()

(* ---- convergence: iterations to tolerance and recorder overhead ---- *)

let section_conv () =
  header "Convergence — iterations to tolerance per solver (paper models)";
  Format.printf "(fitted operative H2, η=25, λ=0.8N; default tolerances)@.@.";
  Format.printf "  %3s  %5s  %10s  %11s  %9s  %11s@." "N" "s" "qr sweeps"
    "sweeps/eig" "mg iters" "brent iters";
  List.iter
    (fun servers ->
      let lambda = 0.8 *. float_of_int servers in
      let m = model ~servers ~lambda in
      match Urs.Model.qbd m with
      | None -> Format.printf "  %3d  (no phase-type model)@." servers
      | Some q ->
          let (), traces =
            Urs_obs.Convergence.with_recording (fun () ->
                (match Urs_mmq.Spectral.solve q with Ok _ | Error _ -> ());
                (match Urs_mmq.Matrix_geometric.solve q with
                | Ok _ | Error _ -> ());
                match Urs_mmq.Geometric.solve q with Ok _ | Error _ -> ())
          in
          let iters solver =
            List.fold_left
              (fun acc (tr : Urs_obs.Convergence.trace) ->
                if tr.Urs_obs.Convergence.solver = solver then
                  acc + tr.Urs_obs.Convergence.iterations
                else acc)
              0 traces
          in
          let s = Urs_mmq.Qbd.s q in
          let qr = iters "qr" in
          List.iter
            (fun (solver, n) ->
              Metrics.set
                (Metrics.gauge
                   ~labels:
                     [ ("solver", solver); ("n", string_of_int servers) ]
                   ~help:
                     "Iterations to tolerance on the λ=0.8N paper model"
                   "urs_bench_conv_iterations")
                (float_of_int n))
            [ ("qr", qr); ("mg_r", iters "mg_r"); ("brent", iters "brent") ];
          Format.printf "  %3d  %5d  %10d  %11.2f  %9d  %11d@." servers s qr
            (float_of_int qr /. float_of_int s)
            (iters "mg_r") (iters "brent");
          flush ())
    [ 5; 10; 20 ];
  (* recorder overhead: the N=5 spectral solve with the global recording
     flag off vs on — the callbacks only read already-computed values,
     so this should be noise-level *)
  let m = model ~servers:5 ~lambda:4.0 in
  (match Urs.Model.qbd m with
  | None -> ()
  | Some q ->
      let time_solves recording =
        Urs_obs.Convergence.set_recording recording;
        ignore (Urs_mmq.Spectral.solve q);
        let iters = 30 in
        let t0 = Span.now () in
        for _ = 1 to iters do
          ignore (Urs_mmq.Spectral.solve q)
        done;
        let per = (Span.now () -. t0) /. float_of_int iters in
        Urs_obs.Convergence.set_recording false;
        Metrics.set
          (Metrics.gauge
             ~labels:[ ("recording", if recording then "on" else "off") ]
             ~help:
               "Mean wall seconds per N=5 spectral solve with convergence \
                recording off/on"
             "urs_bench_conv_solve_seconds")
          per;
        per
      in
      let off = time_solves false in
      let on = time_solves true in
      Urs_obs.Convergence.reset ();
      Format.printf
        "@.recorder overhead (N=5 spectral): %.3f ms/solve off, %.3f \
         ms/solve on (%+.1f%%)@."
        (1e3 *. off) (1e3 *. on)
        (100.0 *. ((on /. off) -. 1.0)));
  flush ()

(* ---- parallel execution: pool and cache speedups ---- *)

let section_speedup () =
  header "Parallel execution — Figure-8 load sweep under --jobs and the solve cache";
  Format.printf "(N=10, fitted operative H2, η=25; 19 loads in [0.05, 0.95])@.@.";
  let m = model ~servers:10 ~lambda:8.0 in
  let values = Urs.Sweep.linspace 0.05 0.95 19 in
  let time f =
    let t0 = Span.now () in
    let r = f () in
    (Span.now () -. t0, r)
  in
  let gauge config =
    Metrics.gauge
      ~labels:[ ("config", config) ]
      ~help:"Wall seconds for the Figure-8 load sweep" "urs_bench_sweep_seconds"
  in
  let base_t, base = time (fun () -> Urs.Sweep.over_loads m ~values) in
  Metrics.set (gauge "jobs1") base_t;
  Format.printf "  %-24s  %10s  %8s  %s@." "configuration" "wall (s)" "speedup"
    "identical";
  let report config t points =
    Metrics.set (gauge config) t;
    Format.printf "  %-24s  %10.3f  %7.2fx  %s@." config t (base_t /. t)
      (if points = base then "yes" else "NO");
    flush ()
  in
  report "jobs=1" base_t base;
  List.iter
    (fun domains ->
      let t, pts =
        Urs_exec.Pool.with_pool ~name:"bench" ~domains (fun pool ->
            time (fun () -> Urs.Sweep.over_loads ~pool m ~values))
      in
      report (Printf.sprintf "jobs=%d" domains) t pts)
    [ 2; 4 ];
  let cache = Urs.Solve_cache.create () in
  let cold_t, cold = time (fun () -> Urs.Sweep.over_loads ~cache m ~values) in
  report "cache cold" cold_t cold;
  let warm_t, warm = time (fun () -> Urs.Sweep.over_loads ~cache m ~values) in
  report "cache warm" warm_t warm;
  Format.printf
    "@.(domain speedup tracks the host's core count; the warm cache answers@.\
     every point from memory and is core-independent. The \"identical\"@.\
     column checks the point lists are equal to the sequential run.)@.";
  flush ()

(* ---- driver ---- *)

let sections : (string * string * (unit -> unit)) list =
  [
    ("ks", "Section 2: KS goodness-of-fit decisions", section_ks);
    ("fig3", "Figure 3: operative-period densities", section_fig3);
    ("fig4", "Figure 4: inoperative-period densities", section_fig4);
    ("fig5", "Figure 5: cost against N", section_fig5);
    ("fig6", "Figure 6: L against C²", section_fig6);
    ("fig7", "Figure 7: L against mean repair time", section_fig7);
    ("fig8", "Figure 8: exact vs approximation", section_fig8);
    ("fig9", "Figure 9: response time against N", section_fig9);
    ("ablation", "Solver agreement ablation", section_ablation);
    ("extensions", "Extensions beyond the paper", section_extensions);
    ("n5", "N=5 solver wall time (bench-regression gate)", section_n5);
    ("sim", "Simulation engine events/sec (sim-perf gate)", section_sim);
    ("serve", "HTTP serve throughput and p99 (healthz, cached solve)", section_serve);
    ("query", "Ledger query engine: cold vs indexed scan", section_query);
    ("conv", "Convergence: iterations to tolerance per solver", section_conv);
    ("speedup", "Pool and solve-cache speedups", section_speedup);
  ]

(* Each section runs against a freshly reset registry; its wall time and
   final metrics snapshot are accumulated and written to
   BENCH_solvers.json so solver behaviour (QR sweeps, LU counts,
   simulation event totals, per-stage histograms) can be compared
   across commits. Zero-valued series are dropped from the snapshot —
   they carry no information and triple the file size.

   The run also journals to BENCH_ledger.jsonl: every solver call made
   while reproducing the figures appends its own record, and a
   "bench.section" record closes each section, so any individual sweep
   point can be traced back (and re-run) from the journal. *)

let bench_records : (string * float * Json.t) list ref = ref []

let run_section name f =
  Metrics.reset ();
  let t0 = Span.now () in
  f ();
  let seconds = Span.now () -. t0 in
  Urs_obs.Ledger.record ~kind:"bench.section"
    ~params:[ ("section", Json.String name) ]
    ~wall_seconds:seconds ();
  bench_records :=
    (name, seconds, Export.json_value ~skip_zero:true (Metrics.snapshot ()))
    :: !bench_records

let write_bench_json path =
  let sections =
    List.rev_map
      (fun (name, seconds, metrics) ->
        Json.Obj
          [ ("name", Json.String name); ("seconds", Json.Float seconds);
            ("metrics", metrics) ])
      !bench_records
  in
  let doc =
    Json.Obj
      [ ("schema", Json.String "urs-bench/1"); ("sections", Json.List sections) ]
  in
  let oc = open_out path in
  Json.to_channel oc doc;
  close_out oc;
  Format.printf "@.wrote %s (%d sections)@." path (List.length sections)

(* Whenever a gate section (n5, sim) ran, append one urs-perf/1 line
   (see Perf.schema in perf.mli) to the committed BENCH_history.jsonl —
   never truncate; `urs report` consumes the trend. URS_BENCH_HISTORY
   overrides the path (CI's report-smoke and sim-perf jobs use a
   scratch file so their gates only compare same-machine runs). *)
let append_history () =
  match !gate_stats with
  | [] -> ()
  | stats ->
      let path =
        match Sys.getenv_opt "URS_BENCH_HISTORY" with
        | Some p when p <> "" -> p
        | _ -> "BENCH_history.jsonl"
      in
      let jobs =
        match Option.bind (Sys.getenv_opt "URS_JOBS") int_of_string_opt with
        | Some j when j >= 1 -> j
        | _ -> 1
      in
      let entry =
        {
          Urs_obs.Perf.time = Unix.gettimeofday ();
          git_rev = Urs_obs.Perf.git_rev ();
          ocaml = Sys.ocaml_version;
          jobs;
          sections =
            List.rev_map (fun (name, seconds, _) -> (name, seconds)) !bench_records;
          solvers = List.rev stats;
        }
      in
      (try Urs_obs.Perf.append path entry
       with Sys_error msg ->
         Format.eprintf "bench: cannot append %s: %s@." path msg);
      Format.printf "appended perf-history entry to %s@." path

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level
    (match Option.map Logs.level_of_string (Sys.getenv_opt "URS_LOG") with
    | Some (Ok level) -> level
    | Some (Error _) | None -> Some Logs.Warning);
  let args = List.tl (Array.to_list Sys.argv) in
  (match args with
  | [ "list" ] -> ()
  | _ -> Urs_obs.Ledger.open_file ~truncate:true "BENCH_ledger.jsonl");
  (match args with
  | [] | [ "all" ] ->
      List.iter (fun (name, _, f) -> run_section name f) sections;
      Format.printf "@.all sections complete.@."
  | [ "list" ] ->
      List.iter (fun (name, descr, _) -> Format.printf "%-10s %s@." name descr)
        sections
  | names ->
      List.iter
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) sections with
          | Some (_, _, f) -> run_section name f
          | None ->
              Format.printf "unknown section %S (try: list)@." name;
              exit 1)
        names);
  Urs_obs.Ledger.close ();
  if !bench_records <> [] then write_bench_json "BENCH_solvers.json";
  append_history ()
