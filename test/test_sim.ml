(* Tests for the discrete-event simulator: index heap, int deque,
   collector, the server-farm model, probes and replications. The key
   correctness tests validate the simulator against closed forms
   (M/M/c) and against the exact spectral solution. *)

open Urs_sim

let check_float ?(tol = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---- Index_heap ---- *)

let test_index_heap_ordering () =
  let h = Index_heap.create () in
  List.iter
    (fun t ->
      Index_heap.push h ~time:t ~kind:(int_of_float t) ~server:(-1) ~epoch:0)
    [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = ref [] in
  while not (Index_heap.is_empty h) do
    order := Index_heap.top_kind h :: !order;
    Index_heap.drop h
  done;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_index_heap_fifo_ties () =
  let h = Index_heap.create () in
  Index_heap.push h ~time:1.0 ~kind:1 ~server:7 ~epoch:0;
  Index_heap.push h ~time:1.0 ~kind:2 ~server:8 ~epoch:1;
  Index_heap.push h ~time:1.0 ~kind:3 ~server:9 ~epoch:2;
  let seen = ref [] in
  while not (Index_heap.is_empty h) do
    seen :=
      (Index_heap.top_kind h, Index_heap.top_server h, Index_heap.top_epoch h)
      :: !seen;
    Index_heap.drop h
  done;
  Alcotest.(check bool) "insertion order on equal times" true
    (List.rev !seen = [ (1, 7, 0); (2, 8, 1); (3, 9, 2) ])

let test_index_heap_growth_and_recycling () =
  (* push past the initial capacity, drain, then reuse: slots must be
     recycled and ordering preserved *)
  let h = Index_heap.create ~capacity:4 () in
  for i = 999 downto 0 do
    Index_heap.push h ~time:(float_of_int i) ~kind:i ~server:(-1) ~epoch:0
  done;
  Alcotest.(check int) "size" 1000 (Index_heap.size h);
  let prev = ref neg_infinity in
  while not (Index_heap.is_empty h) do
    let t = Index_heap.top_time h in
    if t < !prev then Alcotest.fail "heap order violated";
    prev := t;
    Index_heap.drop h
  done;
  Alcotest.(check bool) "empty" true (Index_heap.is_empty h);
  (* second drain over the recycled slots *)
  let g = Urs_prob.Rng.create 3 in
  for _ = 1 to 5000 do
    Index_heap.push h ~time:(Urs_prob.Rng.float g) ~kind:0 ~server:(-1)
      ~epoch:0
  done;
  let prev = ref neg_infinity and n = ref 0 in
  while not (Index_heap.is_empty h) do
    let t = Index_heap.top_time h in
    if t < !prev then Alcotest.fail "order violated after recycling";
    prev := t;
    incr n;
    Index_heap.drop h
  done;
  Alcotest.(check int) "all dropped" 5000 !n

let test_index_heap_empty_drop_raises () =
  let h = Index_heap.create () in
  Alcotest.check_raises "drop on empty"
    (Invalid_argument "Index_heap.drop: empty heap") (fun () ->
      Index_heap.drop h)

(* ---- Int_deque ---- *)

let test_int_deque_fifo () =
  let d = Int_deque.create () in
  Int_deque.push_back d 1;
  Int_deque.push_back d 2;
  Int_deque.push_back d 3;
  Alcotest.(check int) "first" 1 (Int_deque.pop_front d);
  Alcotest.(check int) "second" 2 (Int_deque.pop_front d);
  Int_deque.push_back d 4;
  Alcotest.(check int) "third" 3 (Int_deque.pop_front d);
  Alcotest.(check int) "fourth" 4 (Int_deque.pop_front d);
  Alcotest.(check int) "empty sentinel" (-1) (Int_deque.pop_front d)

let test_int_deque_push_front () =
  let d = Int_deque.create () in
  Int_deque.push_back d 10;
  Int_deque.push_back d 11;
  Int_deque.push_front d 99;
  Alcotest.(check int) "preempted first" 99 (Int_deque.pop_front d);
  Alcotest.(check int) "then queued" 10 (Int_deque.pop_front d)

let test_int_deque_growth_wraparound () =
  (* force growth while head is mid-buffer so the unwrap copy runs *)
  let d = Int_deque.create ~capacity:4 () in
  for i = 0 to 2 do
    Int_deque.push_back d i
  done;
  ignore (Int_deque.pop_front d);
  ignore (Int_deque.pop_front d);
  for i = 3 to 40 do
    Int_deque.push_back d i
  done;
  Alcotest.(check int) "length" 39 (Int_deque.length d);
  for i = 2 to 40 do
    Alcotest.(check int) "order preserved" i (Int_deque.pop_front d)
  done;
  Alcotest.(check bool) "empty" true (Int_deque.is_empty d);
  Int_deque.push_front d 7;
  Alcotest.(check int) "front after wrap" 7 (Int_deque.pop_front d)

(* ---- Collector ---- *)

let test_collector_time_average () =
  let c = Collector.create () in
  Collector.set_jobs c ~now:0.0 2;
  (* 2 jobs on [0,4) *)
  Collector.set_jobs c ~now:4.0 0;
  (* 0 jobs on [4,10) *)
  check_float "time average" 0.8 (Collector.mean_jobs c ~now:10.0)

let test_collector_reset () =
  let c = Collector.create () in
  Collector.set_jobs c ~now:0.0 100;
  Collector.record_response c 42.0;
  Collector.reset c ~now:5.0;
  (* after reset: still 100 jobs in system, but no history *)
  check_float "mean after reset" 100.0 (Collector.mean_jobs c ~now:6.0);
  Alcotest.(check int) "responses cleared" 0 (Collector.completed c)

let test_collector_percentiles () =
  let c = Collector.create () in
  for i = 1 to 100 do
    Collector.record_response c (float_of_int i)
  done;
  check_float ~tol:0.6 "median" 50.5 (Collector.response_percentile c 0.5);
  check_float ~tol:1.1 "p90" 90.0 (Collector.response_percentile c 0.9);
  Alcotest.(check int) "count" 100 (Collector.completed c)

let test_collector_tracking_disabled () =
  let c = Collector.create ~track_responses:false () in
  Collector.record_response c 1.0;
  Alcotest.(check int) "welford still counts" 1 (Collector.completed c);
  Alcotest.check_raises "percentile raises"
    (Invalid_argument "Collector.response_percentile: tracking disabled")
    (fun () -> ignore (Collector.response_percentile c 0.5))

(* ---- Server_farm vs closed forms ---- *)

let reliable_operative = Urs_prob.Distribution.exponential ~rate:1e-9
let instant_repair = Urs_prob.Distribution.exponential ~rate:1e6

let test_sim_matches_mm1 () =
  (* effectively reliable single server: M/M/1 with ρ=0.7, L=2.333 *)
  let cfg =
    {
      Server_farm.servers = 1;
      lambda = 0.7;
      mu = 1.0;
      operative = reliable_operative;
      inoperative = instant_repair;
      repair_crews = None;
    }
  in
  let r = Server_farm.run ~seed:11 ~duration:400_000.0 cfg in
  check_float ~tol:0.1 "L" (0.7 /. 0.3) r.Server_farm.mean_jobs;
  (* Little's law inside the simulation *)
  check_float ~tol:0.02 "W = L/λ"
    (r.Server_farm.mean_jobs /. 0.7)
    r.Server_farm.mean_response

let test_sim_matches_mmc () =
  let cfg =
    {
      Server_farm.servers = 3;
      lambda = 2.0;
      mu = 1.0;
      operative = reliable_operative;
      inoperative = instant_repair;
      repair_crews = None;
    }
  in
  let r = Server_farm.run ~seed:13 ~duration:400_000.0 cfg in
  let expected = Urs_mmq.Mmc.mean_queue_length ~servers:3 ~lambda:2.0 ~mu:1.0 in
  check_float ~tol:0.08 "L vs Erlang C" expected r.Server_farm.mean_jobs

let test_sim_matches_spectral_with_breakdowns () =
  let op = Urs_prob.Distribution.h2 ~w1:0.7246 ~r1:0.1663 ~r2:0.0091 in
  let inop = Urs_prob.Distribution.exponential ~rate:25.0 in
  let cfg =
    { Server_farm.servers = 4; lambda = 3.0; mu = 1.0; operative = op;
      inoperative = inop; repair_crews = None }
  in
  let env =
    Urs_mmq.Environment.create ~servers:4
      ~operative:(Option.get (Urs_prob.Distribution.as_hyperexponential op))
      ~inoperative:(Option.get (Urs_prob.Distribution.as_hyperexponential inop))
  in
  let q = Urs_mmq.Qbd.create ~env ~lambda:3.0 ~mu:1.0 in
  let exact =
    match Urs_mmq.Spectral.solve q with
    | Ok sol -> Urs_mmq.Spectral.mean_queue_length sol
    | Error e -> Alcotest.failf "spectral failed: %a" Urs_mmq.Spectral.pp_error e
  in
  let s = Replicate.run ~seed:17 ~replications:5 ~duration:150_000.0 cfg in
  let est = s.Replicate.mean_jobs.Replicate.estimate in
  let hw = s.Replicate.mean_jobs.Replicate.half_width in
  if abs_float (est -. exact) > Float.max (3.0 *. hw) (0.05 *. exact) then
    Alcotest.failf "sim %.4f±%.4f vs exact %.4f" est hw exact

let test_sim_availability () =
  (* fraction of operative servers matches η/(ξ+η) *)
  let cfg =
    {
      Server_farm.servers = 5;
      lambda = 0.5;
      mu = 1.0;
      operative = Urs_prob.Distribution.exponential ~rate:0.1;
      inoperative = Urs_prob.Distribution.exponential ~rate:0.4;
      repair_crews = None;
    }
  in
  let r = Server_farm.run ~seed:19 ~duration:200_000.0 cfg in
  (* availability = (1/0.1)/(1/0.1 + 1/0.4) = 0.8 *)
  check_float ~tol:0.02 "mean operative" 4.0 r.Server_farm.mean_operative

let test_sim_deterministic_periods () =
  (* deterministic operative periods: the C²=0 case of Figure 6 *)
  let cfg =
    {
      Server_farm.servers = 2;
      lambda = 1.0;
      mu = 1.0;
      operative = Urs_prob.Distribution.deterministic 30.0;
      inoperative = Urs_prob.Distribution.exponential ~rate:2.0;
      repair_crews = None;
    }
  in
  let r = Server_farm.run ~seed:23 ~duration:100_000.0 cfg in
  Alcotest.(check bool) "completes jobs" true (r.Server_farm.completed > 10_000);
  Alcotest.(check bool) "finite queue" true (r.Server_farm.mean_jobs < 50.0)

let test_sim_seed_determinism () =
  let cfg =
    {
      Server_farm.servers = 2;
      lambda = 1.0;
      mu = 1.0;
      operative = Urs_prob.Distribution.exponential ~rate:0.05;
      inoperative = Urs_prob.Distribution.exponential ~rate:10.0;
      repair_crews = None;
    }
  in
  let a = Server_farm.run ~seed:5 ~duration:10_000.0 cfg in
  let b = Server_farm.run ~seed:5 ~duration:10_000.0 cfg in
  check_float "reproducible" a.Server_farm.mean_jobs b.Server_farm.mean_jobs;
  let c = Server_farm.run ~seed:6 ~duration:10_000.0 cfg in
  Alcotest.(check bool) "seed changes stream" true
    (a.Server_farm.mean_jobs <> c.Server_farm.mean_jobs)

let test_sim_preempt_resume_conserves_work () =
  (* with breakdowns, throughput must still equal λ in steady state
     (all work is eventually served; preempt-resume loses nothing) *)
  let cfg =
    {
      Server_farm.servers = 3;
      lambda = 1.5;
      mu = 1.0;
      operative = Urs_prob.Distribution.exponential ~rate:0.2;
      inoperative = Urs_prob.Distribution.exponential ~rate:1.0;
      repair_crews = None;
    }
  in
  let r = Server_farm.run ~seed:29 ~duration:200_000.0 cfg in
  let throughput = float_of_int r.Server_farm.completed /. r.Server_farm.measured_time in
  check_float ~tol:0.02 "throughput = λ" 1.5 throughput

let test_sim_validation_errors () =
  let cfg =
    {
      Server_farm.servers = 0;
      lambda = 1.0;
      mu = 1.0;
      operative = reliable_operative;
      inoperative = instant_repair;
      repair_crews = None;
    }
  in
  Alcotest.check_raises "servers >= 1"
    (Invalid_argument "Server_farm: servers must be >= 1") (fun () ->
      Server_farm.validate cfg)

let test_sim_response_percentiles_present () =
  let cfg =
    {
      Server_farm.servers = 2;
      lambda = 1.0;
      mu = 1.0;
      operative = Urs_prob.Distribution.exponential ~rate:0.05;
      inoperative = Urs_prob.Distribution.exponential ~rate:10.0;
      repair_crews = None;
    }
  in
  let r = Server_farm.run ~seed:31 ~duration:20_000.0 cfg in
  Alcotest.(check bool) "responses recorded" true
    (Array.length r.Server_farm.responses > 1000);
  let p90 = Urs_stats.Empirical.quantile r.Server_farm.responses 0.9 in
  let p50 = Urs_stats.Empirical.quantile r.Server_farm.responses 0.5 in
  Alcotest.(check bool) "p90 > p50" true (p90 > p50)

let test_sim_repair_crews_match_exact () =
  (* one repair crew, exponential repairs: the simulator's FCFS repair
     shop must match the analytic min(y,c)·η model *)
  let cfg =
    {
      Server_farm.servers = 6;
      lambda = 2.0;
      mu = 1.0;
      operative = Urs_prob.Distribution.exponential ~rate:0.1;
      inoperative = Urs_prob.Distribution.exponential ~rate:0.5;
      repair_crews = Some 1;
    }
  in
  let m =
    Urs.Model.create ~repair_crews:1 ~servers:6 ~arrival_rate:2.0
      ~service_rate:1.0
      ~operative:(Urs_prob.Distribution.exponential ~rate:0.1)
      ~inoperative:(Urs_prob.Distribution.exponential ~rate:0.5) ()
  in
  let exact = (Urs.Solver.evaluate_exn m).Urs.Solver.mean_jobs in
  let s = Replicate.run ~seed:43 ~replications:5 ~duration:150_000.0 cfg in
  let est = s.Replicate.mean_jobs.Replicate.estimate in
  let hw = s.Replicate.mean_jobs.Replicate.half_width in
  if abs_float (est -. exact) > Float.max (4.0 *. hw) (0.05 *. exact) then
    Alcotest.failf "crews sim %.4f±%.4f vs exact %.4f" est hw exact

let test_sim_crews_slow_down_repairs () =
  let base crews =
    {
      Server_farm.servers = 5;
      lambda = 1.0;
      mu = 1.0;
      operative = Urs_prob.Distribution.exponential ~rate:0.2;
      inoperative = Urs_prob.Distribution.exponential ~rate:0.5;
      repair_crews = crews;
    }
  in
  let ops crews =
    (Server_farm.run ~seed:47 ~duration:100_000.0 (base crews))
      .Server_farm.mean_operative
  in
  Alcotest.(check bool) "fewer crews, fewer operative servers" true
    (ops (Some 1) < ops None)

(* ---- Replicate ---- *)

let test_replicate_ci_narrows () =
  let cfg =
    {
      Server_farm.servers = 2;
      lambda = 1.0;
      mu = 1.0;
      operative = Urs_prob.Distribution.exponential ~rate:0.05;
      inoperative = Urs_prob.Distribution.exponential ~rate:10.0;
      repair_crews = None;
    }
  in
  let short = Replicate.run ~seed:37 ~replications:5 ~duration:5_000.0 cfg in
  let long = Replicate.run ~seed:37 ~replications:5 ~duration:80_000.0 cfg in
  Alcotest.(check bool) "longer runs narrow the CI" true
    (long.Replicate.mean_jobs.Replicate.half_width
    < short.Replicate.mean_jobs.Replicate.half_width)

let test_replicate_pinned_summary () =
  (* regression pin for the split-stream per-replication seeding: every
     replication seed is a full 62-bit draw from a master splitmix64
     stream keyed by ~seed. These values change only if the seeding
     scheme or the simulator's event handling changes — update them
     deliberately, never to make the test pass. *)
  let cfg =
    {
      Server_farm.servers = 2;
      lambda = 1.0;
      mu = 1.0;
      operative = Urs_prob.Distribution.exponential ~rate:0.05;
      inoperative = Urs_prob.Distribution.exponential ~rate:10.0;
      repair_crews = None;
    }
  in
  let s = Replicate.run ~seed:123 ~replications:3 ~duration:2_000.0 cfg in
  let check name expected got = Alcotest.(check (float 1e-6)) name expected got in
  check "mean jobs" 1.36661027453 s.Replicate.mean_jobs.Replicate.estimate;
  check "mean jobs CI" 0.251445645386 s.Replicate.mean_jobs.Replicate.half_width;
  check "mean response" 1.35809262083
    s.Replicate.mean_response.Replicate.estimate;
  check "mean response CI" 0.182173906069
    s.Replicate.mean_response.Replicate.half_width

let test_replicate_timelines_do_not_perturb () =
  (* the probe consumes no randomness and schedules no events, so the
     summaries with and without timelines are bit-identical *)
  let cfg =
    {
      Server_farm.servers = 3;
      lambda = 2.0;
      mu = 1.0;
      operative = Urs_prob.Distribution.h2 ~w1:0.7246 ~r1:0.1663 ~r2:0.0091;
      inoperative = Urs_prob.Distribution.exponential ~rate:1.0;
      repair_crews = None;
    }
  in
  let run timelines =
    Replicate.run ~seed:71 ~replications:3 ~duration:5_000.0 ~timelines
      ~timeline_registry:(Urs_obs.Timeline.create ()) cfg
  in
  let a = run true and b = run false in
  let same name (x : Replicate.interval) (y : Replicate.interval) =
    check_float ~tol:0.0 (name ^ " estimate") x.Replicate.estimate
      y.Replicate.estimate;
    check_float ~tol:0.0 (name ^ " half-width") x.Replicate.half_width
      y.Replicate.half_width
  in
  same "mean jobs" a.Replicate.mean_jobs b.Replicate.mean_jobs;
  same "mean response" a.Replicate.mean_response b.Replicate.mean_response;
  same "mean operative" a.Replicate.mean_operative b.Replicate.mean_operative

(* ---- allocation regression ---- *)

let test_sim_allocation_per_event () =
  (* the engine must not regress to per-event closure/boxing traffic.
     In the release profile it runs at ~0.06 minor words/event; the dev
     profile compiles with -opaque (no cross-module inlining), which
     boxes float arguments at module boundaries and costs ~12
     words/event. The old closure-based engine allocated ~77, so a
     threshold of 32 catches a structural regression under either
     profile while staying immune to compiler-flag noise. *)
  let cfg =
    {
      Server_farm.servers = 4;
      lambda = 3.0;
      mu = 1.0;
      operative = Urs_prob.Distribution.h2 ~w1:0.7246 ~r1:0.1663 ~r2:0.0091;
      inoperative = Urs_prob.Distribution.exponential ~rate:25.0;
      repair_crews = None;
    }
  in
  (* warm the pools so steady-state growth is done *)
  ignore (Server_farm.run ~seed:61 ~track_responses:false ~duration:2_000.0 cfg);
  let before = Gc.minor_words () in
  let r =
    Server_farm.run ~seed:61 ~track_responses:false ~duration:20_000.0 cfg
  in
  let words = Gc.minor_words () -. before in
  let per_event = words /. float_of_int r.Server_farm.events in
  if per_event > 32.0 then
    Alcotest.failf "allocation regression: %.2f minor words/event" per_event

let test_sim_allocation_per_event_with_probe () =
  (* the default path: every simulation that users run records its
     trajectory through a probe. The probe buffers samples in float
     arrays and hands them to its timelines a block at a time, so the
     run stays at ~0.1 minor words/event in the release profile and
     ~10 in the dev profile (-opaque boxes the floats passed to
     [Probe.set_jobs]). A recorder that boxes its state per sample
     costs ~73-81, so the engine test's threshold of 32 catches a
     return to one under either profile. *)
  let cfg =
    {
      Server_farm.servers = 4;
      lambda = 3.0;
      mu = 1.0;
      operative = Urs_prob.Distribution.h2 ~w1:0.7246 ~r1:0.1663 ~r2:0.0091;
      inoperative = Urs_prob.Distribution.exponential ~rate:25.0;
      repair_crews = None;
    }
  in
  let registry = Urs_obs.Timeline.create () in
  let probe () = Probe.create ~registry ~horizon:22_000.0 ~servers:4 () in
  ignore
    (Server_farm.run ~seed:61 ~track_responses:false ~probe:(probe ())
       ~duration:2_000.0 cfg);
  let probe = probe () in
  let before = Gc.minor_words () in
  let r =
    Server_farm.run ~seed:61 ~track_responses:false ~probe ~duration:20_000.0
      cfg
  in
  let words = Gc.minor_words () -. before in
  let per_event = words /. float_of_int r.Server_farm.events in
  if per_event > 32.0 then
    Alcotest.failf "allocation regression with a probe: %.2f minor words/event"
      per_event

let () =
  Alcotest.run "urs_sim"
    [
      ( "index_heap",
        [
          Alcotest.test_case "ordering" `Quick test_index_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_index_heap_fifo_ties;
          Alcotest.test_case "growth and slot recycling" `Quick
            test_index_heap_growth_and_recycling;
          Alcotest.test_case "drop on empty raises" `Quick
            test_index_heap_empty_drop_raises;
        ] );
      ( "int_deque",
        [
          Alcotest.test_case "fifo" `Quick test_int_deque_fifo;
          Alcotest.test_case "push front (preemption)" `Quick
            test_int_deque_push_front;
          Alcotest.test_case "growth with wraparound" `Quick
            test_int_deque_growth_wraparound;
        ] );
      ( "collector",
        [
          Alcotest.test_case "time average" `Quick test_collector_time_average;
          Alcotest.test_case "reset" `Quick test_collector_reset;
          Alcotest.test_case "percentiles" `Quick test_collector_percentiles;
          Alcotest.test_case "tracking disabled" `Quick
            test_collector_tracking_disabled;
        ] );
      ( "server_farm",
        [
          Alcotest.test_case "matches M/M/1" `Slow test_sim_matches_mm1;
          Alcotest.test_case "matches M/M/3" `Slow test_sim_matches_mmc;
          Alcotest.test_case "matches spectral with breakdowns" `Slow
            test_sim_matches_spectral_with_breakdowns;
          Alcotest.test_case "availability" `Slow test_sim_availability;
          Alcotest.test_case "deterministic periods (C²=0)" `Slow
            test_sim_deterministic_periods;
          Alcotest.test_case "seed determinism" `Quick test_sim_seed_determinism;
          Alcotest.test_case "preempt-resume conserves work" `Slow
            test_sim_preempt_resume_conserves_work;
          Alcotest.test_case "config validation" `Quick test_sim_validation_errors;
          Alcotest.test_case "response percentiles" `Quick
            test_sim_response_percentiles_present;
        ] );
      ( "repair crews",
        [
          Alcotest.test_case "matches exact" `Slow test_sim_repair_crews_match_exact;
          Alcotest.test_case "crews bound repairs" `Slow
            test_sim_crews_slow_down_repairs;
        ] );
      ( "replicate",
        [
          Alcotest.test_case "ci narrows with duration" `Slow
            test_replicate_ci_narrows;
          Alcotest.test_case "pinned summary (split-stream seeds)" `Slow
            test_replicate_pinned_summary;
          Alcotest.test_case "timelines do not perturb results" `Quick
            test_replicate_timelines_do_not_perturb;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "minor words per event bounded" `Slow
            test_sim_allocation_per_event;
          Alcotest.test_case "minor words per event bounded with a probe"
            `Slow test_sim_allocation_per_event_with_probe;
        ] );
    ]
