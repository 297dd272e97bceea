(* Tests for the statistics substrate: histograms (the paper's empirical
   density machinery), descriptive statistics, Welford accumulation,
   Student-t quantiles and Welch warm-up detection. *)

open Urs_stats

let check_float ?(tol = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---- Histogram ---- *)

let test_histogram_counts () =
  let data = [| 0.5; 1.5; 1.6; 2.5; 2.6; 2.7 |] in
  let h = Histogram.build ~bins:3 ~range:(0.0, 3.0) data in
  Alcotest.(check (array int)) "counts" [| 1; 2; 3 |] (Histogram.counts h);
  check_float "width" 1.0 (Histogram.width h);
  Alcotest.(check int) "total" 6 (Histogram.total h)

let test_histogram_midpoints () =
  let h = Histogram.build ~bins:4 ~range:(0.0, 8.0) [| 1.0 |] in
  Alcotest.(check (array (float 1e-12)))
    "midpoints" [| 1.0; 3.0; 5.0; 7.0 |] (Histogram.midpoints h)

let test_histogram_probabilities_densities () =
  let data = [| 0.5; 0.6; 1.5; 1.6 |] in
  let h = Histogram.build ~bins:2 ~range:(0.0, 2.0) data in
  Alcotest.(check (array (float 1e-12)))
    "p_i = f_i/n" [| 0.5; 0.5 |] (Histogram.probabilities h);
  (* d_i = p_i / delta_i (paper §2) *)
  Alcotest.(check (array (float 1e-12)))
    "d_i = p_i/delta" [| 0.5; 0.5 |] (Histogram.densities h);
  (* densities integrate to 1 *)
  let total =
    Array.fold_left
      (fun acc d -> acc +. (d *. Histogram.width h))
      0.0 (Histogram.densities h)
  in
  check_float "density integral" 1.0 total

let test_histogram_ecdf_points () =
  let data = [| 0.5; 0.6; 1.5; 1.6 |] in
  let h = Histogram.build ~bins:2 ~range:(0.0, 2.0) data in
  let pts = Histogram.empirical_cdf_points h in
  check_float "F(x0)" 0.5 (snd pts.(0));
  check_float "F(x1)" 1.0 (snd pts.(1))

let test_histogram_moments () =
  (* eq. (1): M̃_k = Σ x_i^k p_i over midpoints *)
  let data = [| 0.5; 0.5; 1.5; 1.5 |] in
  let h = Histogram.build ~bins:2 ~range:(0.0, 2.0) data in
  check_float "M1" 1.0 (Histogram.moment h 1);
  check_float "M2" ((0.25 +. 2.25) /. 2.0) (Histogram.moment h 2);
  check_float "variance (eq 2)" (Histogram.moment h 2 -. 1.0) (Histogram.variance h)

let test_histogram_clamps_outliers () =
  let h = Histogram.build ~bins:2 ~range:(0.0, 2.0) [| -5.0; 10.0 |] in
  Alcotest.(check (array int)) "clamped" [| 1; 1 |] (Histogram.counts h)

let test_histogram_exponential_recovery () =
  (* density of a fine histogram over exponential samples approximates
     the true pdf *)
  let g = Urs_prob.Rng.create 99 in
  let data = Array.init 200_000 (fun _ -> Urs_prob.Rng.exponential g 1.0) in
  let h = Histogram.build ~bins:100 ~range:(0.0, 8.0) data in
  let xs = Histogram.midpoints h and ds = Histogram.densities h in
  (* compare at a mid-range point *)
  let i = 12 in
  check_float ~tol:0.03 "density near pdf" (exp (-.xs.(i))) ds.(i)

(* ---- Empirical ---- *)

let test_empirical_mean_variance () =
  let data = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Empirical.mean data);
  check_float "variance" 4.571428571428571 (Empirical.variance data);
  check_float "min" 2.0 (Empirical.minimum data);
  check_float "max" 9.0 (Empirical.maximum data)

let test_empirical_moments_onepass () =
  let data = [| 1.0; 2.0; 3.0 |] in
  let ms = Empirical.moments data 3 in
  check_float "m1" 2.0 ms.(0);
  check_float "m2" (14.0 /. 3.0) ms.(1);
  check_float "m3" 12.0 ms.(2);
  check_float "matches single" (Empirical.moment data 2) ms.(1)

let test_empirical_quantile () =
  let data = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Empirical.quantile data 0.5);
  check_float "min" 1.0 (Empirical.quantile data 0.0);
  check_float "max" 5.0 (Empirical.quantile data 1.0);
  check_float "interpolated" 1.4 (Empirical.quantile data 0.1)

let test_empirical_ecdf () =
  let data = [| 1.0; 2.0; 3.0 |] in
  check_float "below" 0.0 (Empirical.ecdf data 0.5);
  check_float "mid" (2.0 /. 3.0) (Empirical.ecdf data 2.5);
  check_float "above" 1.0 (Empirical.ecdf data 3.5)

(* ---- Welford ---- *)

let test_welford_matches_batch () =
  let g = Urs_prob.Rng.create 5 in
  let data = Array.init 1000 (fun _ -> Urs_prob.Rng.float g) in
  let w = Welford.create () in
  Array.iter (Welford.add w) data;
  check_float ~tol:1e-12 "mean" (Empirical.mean data) (Welford.mean w);
  check_float ~tol:1e-9 "variance" (Empirical.variance data) (Welford.variance w);
  Alcotest.(check int) "count" 1000 (Welford.count w)

let test_welford_merge () =
  let g = Urs_prob.Rng.create 6 in
  let data = Array.init 500 (fun _ -> Urs_prob.Rng.float g) in
  let a = Welford.create () and b = Welford.create () in
  Array.iteri (fun i x -> Welford.add (if i < 250 then a else b) x) data;
  let m = Welford.merge a b in
  check_float ~tol:1e-12 "merged mean" (Empirical.mean data) (Welford.mean m);
  check_float ~tol:1e-9 "merged variance" (Empirical.variance data)
    (Welford.variance m)

(* ---- Student_t ---- *)

let test_student_t_table () =
  (* classical two-sided critical values *)
  check_float ~tol:1e-3 "df=1 95%" 12.706 (Student_t.critical ~df:1 ~confidence:0.95);
  check_float ~tol:1e-3 "df=9 95%" 2.262 (Student_t.critical ~df:9 ~confidence:0.95);
  check_float ~tol:1e-3 "df=30 95%" 2.042 (Student_t.critical ~df:30 ~confidence:0.95);
  check_float ~tol:1e-3 "df=9 99%" 3.250 (Student_t.critical ~df:9 ~confidence:0.99)

let test_student_t_cdf_symmetry () =
  check_float ~tol:1e-12 "median" 0.5 (Student_t.cdf ~df:7 0.0);
  check_float ~tol:1e-10 "symmetry" 1.0
    (Student_t.cdf ~df:7 1.3 +. Student_t.cdf ~df:7 (-1.3))

let test_student_t_quantile_roundtrip () =
  let q = Student_t.quantile ~df:5 0.9 in
  check_float ~tol:1e-8 "roundtrip" 0.9 (Student_t.cdf ~df:5 q)

(* ---- Welch warm-up detection ---- *)

let test_welch_moving_average () =
  (* a constant signal is a fixed point of the smoother *)
  let flat = Welch.moving_average ~window:3 (Array.make 20 5.0) in
  Array.iter (fun v -> check_float "constant preserved" 5.0 v) flat;
  (* edge windows shrink symmetrically: position 0 is the raw value *)
  let xs = [| 0.0; 2.0; 4.0; 6.0; 8.0 |] in
  let sm = Welch.moving_average ~window:2 xs in
  check_float "edge keeps raw value" 0.0 sm.(0);
  check_float "half-width 1 at position 1" 2.0 sm.(1);
  check_float "full window in the middle" 4.0 sm.(2);
  (* nan entries are skipped, not propagated *)
  let with_gap = [| 1.0; Float.nan; 1.0; 1.0; 1.0 |] in
  let sm = Welch.moving_average ~window:1 with_gap in
  check_float "gap bridged" 1.0 sm.(2);
  Alcotest.check_raises "window must be >= 1"
    (Invalid_argument "Welch.moving_average: window must be >= 1") (fun () ->
      ignore (Welch.moving_average ~window:0 xs))

let test_welch_truncation_known_warmup () =
  (* deterministic stream with a transient of known length: an
     exponential decay on top of a constant steady state, plus a small
     deterministic wiggle so the trajectory is not trivially flat *)
  let n = 200 in
  let steady = 10.0 in
  let xs =
    Array.init n (fun i ->
        let t = float_of_int i in
        steady
        +. (8.0 *. exp (-.t /. 15.0))
        +. (0.05 *. sin (t /. 3.0)))
  in
  (match Welch.truncation_index ~window:5 ~tolerance:0.02 xs with
  | None -> Alcotest.fail "should settle"
  | Some k ->
      (* 8*exp(-t/15) falls below 2% of 10 around t = 15*ln(40) ~ 55 *)
      if k < 30 || k > 80 then
        Alcotest.failf "truncation %d outside the expected 30..80" k);
  (* no transient at all: truncation at index 0 *)
  (match Welch.truncation_index ~window:5 (Array.make n steady) with
  | Some 0 -> ()
  | other ->
      Alcotest.failf "flat stream should truncate at 0, got %s"
        (match other with None -> "None" | Some k -> string_of_int k));
  (* a drifting stream never settles *)
  (match
     Welch.truncation_index ~window:5
       (Array.init n (fun i -> float_of_int i))
   with
  | None -> ()
  | Some k -> Alcotest.failf "drift should never settle, got %d" k);
  (* all-nan input holds no information *)
  match Welch.truncation_index (Array.make 10 Float.nan) with
  | None -> ()
  | Some k -> Alcotest.failf "nan-only input should be None, got %d" k

let test_welch_tail_mean () =
  let xs = Array.init 10 float_of_int in
  (* last half of 0..9 is 5..9 *)
  check_float "default fraction" 7.0 (Welch.tail_mean xs);
  check_float "custom fraction" 8.0 (Welch.tail_mean ~fraction:0.3 xs);
  Alcotest.(check bool)
    "empty tail is nan" true
    (Float.is_nan (Welch.tail_mean (Array.make 5 Float.nan)))

(* ---- qcheck ---- *)

let prop_histogram_total =
  QCheck2.Test.make ~name:"histogram conserves observations" ~count:100
    QCheck2.Gen.(array_size (int_range 1 500) (float_range 0.0 100.0))
    (fun data ->
      let h = Histogram.build ~bins:13 data in
      Array.fold_left ( + ) 0 (Histogram.counts h) = Array.length data)

let prop_quantile_monotone =
  QCheck2.Test.make ~name:"empirical quantile monotone" ~count:100
    QCheck2.Gen.(
      pair
        (array_size (int_range 2 100) (float_range (-50.0) 50.0))
        (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (data, (p, q)) ->
      let lo = Float.min p q and hi = Float.max p q in
      Empirical.quantile data lo <= Empirical.quantile data hi +. 1e-9)

let prop_welford_mean_bounds =
  QCheck2.Test.make ~name:"welford mean within data range" ~count:100
    QCheck2.Gen.(array_size (int_range 1 200) (float_range (-10.0) 10.0))
    (fun data ->
      let w = Welford.create () in
      Array.iter (Welford.add w) data;
      let m = Welford.mean w in
      m >= Empirical.minimum data -. 1e-9 && m <= Empirical.maximum data +. 1e-9)

(* ---- Changepoint (CUSUM) ---- *)

(* a synthetic perf series: multiplicative lognormal noise around a
   baseline, with an optional step factor from [step_at] on — the same
   shape the detector sees from BENCH_history.jsonl (in log space) *)
let perf_series ~seed ~n ~noise ~step_at ~step =
  let rng = Urs_prob.Rng.create seed in
  let xs = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let level = if i >= step_at then step else 1.0 in
    xs.(i) <- log (0.0026 *. level *. exp (noise *. Urs_prob.Rng.normal rng))
  done;
  xs

let test_changepoint_flags_step () =
  let step_at = 20 in
  let xs = perf_series ~seed:200 ~n:30 ~noise:0.05 ~step_at ~step:2.0 in
  match Changepoint.detect xs with
  | None -> Alcotest.fail "missed an injected 2x step"
  | Some c ->
      Alcotest.(check bool) "direction up" true (c.Changepoint.direction = Changepoint.Up);
      if abs (c.Changepoint.start - step_at) > 3 then
        Alcotest.failf "start %d not within 3 of injection %d"
          c.Changepoint.start step_at;
      if c.Changepoint.detected - step_at > 3 then
        Alcotest.failf "detected %d more than 3 points after injection %d"
          c.Changepoint.detected step_at;
      (* shift is a log-ratio: exp shift should be near the 2x factor *)
      let ratio = exp c.Changepoint.shift in
      if ratio < 1.5 || ratio > 2.7 then
        Alcotest.failf "step magnitude %.2fx far from injected 2x" ratio

let test_changepoint_flags_down_step () =
  let xs = perf_series ~seed:200 ~n:30 ~noise:0.05 ~step_at:20 ~step:0.5 in
  match Changepoint.detect xs with
  | None -> Alcotest.fail "missed an injected 0.5x step"
  | Some c ->
      Alcotest.(check bool) "direction down" true
        (c.Changepoint.direction = Changepoint.Down)

let test_changepoint_quiet_on_noise () =
  (* seeded i.i.d. noise around a stable baseline: no alarm *)
  let xs = perf_series ~seed:100 ~n:40 ~noise:0.05 ~step_at:max_int ~step:1.0 in
  (match Changepoint.detect xs with
  | None -> ()
  | Some c ->
      Alcotest.failf "false alarm at %d (stat %.1f)" c.Changepoint.detected
        c.Changepoint.statistic);
  (* constant series: the scale floor keeps z finite and quiet *)
  Alcotest.(check bool) "constant series quiet" true
    (Changepoint.detect (Array.make 30 1.0) = None)

let test_changepoint_short_series () =
  (* fewer than warmup + 2 points can never flag, whatever the data *)
  let xs = [| 1.0; 1.0; 1.0; 8.0; 8.0 |] in
  Alcotest.(check bool) "short series" true (Changepoint.detect xs = None);
  Alcotest.(check bool) "empty" true (Changepoint.detect [||] = None);
  (* the same step flags once the series is long enough *)
  let long = Array.init 20 (fun i -> if i < 14 then 1.0 else 8.0) in
  Alcotest.(check bool) "long enough flags" true
    (Changepoint.detect ~warmup:4 long <> None)

let test_changepoint_skips_nonfinite () =
  let xs = Array.init 30 (fun i -> if i = 5 then nan else 1.0) in
  Alcotest.(check bool) "nan skipped, quiet" true (Changepoint.detect xs = None)

let test_changepoint_invalid_args () =
  let xs = Array.make 20 1.0 in
  Alcotest.check_raises "threshold <= 0"
    (Invalid_argument "Changepoint.detect: threshold <= 0") (fun () ->
      ignore (Changepoint.detect ~threshold:0.0 xs));
  Alcotest.check_raises "drift < 0"
    (Invalid_argument "Changepoint.detect: drift < 0") (fun () ->
      ignore (Changepoint.detect ~drift:(-0.1) xs))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "urs_stats"
    [
      ( "histogram",
        [
          Alcotest.test_case "counts" `Quick test_histogram_counts;
          Alcotest.test_case "midpoints" `Quick test_histogram_midpoints;
          Alcotest.test_case "probabilities and densities" `Quick
            test_histogram_probabilities_densities;
          Alcotest.test_case "empirical cdf points" `Quick
            test_histogram_ecdf_points;
          Alcotest.test_case "moments (eq 1-2)" `Quick test_histogram_moments;
          Alcotest.test_case "outlier clamping" `Quick
            test_histogram_clamps_outliers;
          Alcotest.test_case "recovers exponential density" `Quick
            test_histogram_exponential_recovery;
        ] );
      ( "empirical",
        [
          Alcotest.test_case "mean and variance" `Quick
            test_empirical_mean_variance;
          Alcotest.test_case "one-pass moments" `Quick
            test_empirical_moments_onepass;
          Alcotest.test_case "quantiles" `Quick test_empirical_quantile;
          Alcotest.test_case "ecdf" `Quick test_empirical_ecdf;
        ] );
      ( "welford",
        [
          Alcotest.test_case "matches batch formulas" `Quick
            test_welford_matches_batch;
          Alcotest.test_case "merge" `Quick test_welford_merge;
        ] );
      ( "student_t",
        [
          Alcotest.test_case "critical value table" `Quick test_student_t_table;
          Alcotest.test_case "cdf symmetry" `Quick test_student_t_cdf_symmetry;
          Alcotest.test_case "quantile roundtrip" `Quick
            test_student_t_quantile_roundtrip;
        ] );
      ( "welch",
        [
          Alcotest.test_case "moving average" `Quick test_welch_moving_average;
          Alcotest.test_case "known warm-up" `Quick
            test_welch_truncation_known_warmup;
          Alcotest.test_case "tail mean" `Quick test_welch_tail_mean;
        ] );
      ( "changepoint",
        [
          Alcotest.test_case "flags 2x step within 3 points" `Quick
            test_changepoint_flags_step;
          Alcotest.test_case "flags downward step" `Quick
            test_changepoint_flags_down_step;
          Alcotest.test_case "quiet on seeded iid noise" `Quick
            test_changepoint_quiet_on_noise;
          Alcotest.test_case "short series never flag" `Quick
            test_changepoint_short_series;
          Alcotest.test_case "non-finite points skipped" `Quick
            test_changepoint_skips_nonfinite;
          Alcotest.test_case "invalid arguments" `Quick
            test_changepoint_invalid_args;
        ] );
      ( "properties",
        qc [ prop_histogram_total; prop_quantile_monotone; prop_welford_mean_bounds ] );
    ]
