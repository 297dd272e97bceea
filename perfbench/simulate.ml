(* The simulate workload: Replicate.run with its default options
   (10 replications, timelines on, default warmup) on two models. The
   event engine and its probes do all of the work, so this is the
   control for solver changes. *)

module Json = Urs_obs.Json
module D = Urs_prob.Distribution
module Farm = Urs_sim.Server_farm

(* Fig. 8: N = 10, fitted H2 operative periods, η = 25, load 0.92 *)
let fig8 =
  {
    Farm.servers = 10;
    lambda = Plan.lambda_at ~servers:10 0.92;
    mu = 1.0;
    operative = Urs.Model.paper_operative;
    inoperative = Urs.Model.paper_inoperative_exp;
    repair_crews = None;
  }

(* Fig. 6: N = 10, λ = 8.5, 1/η = 5, operative mean 1/0.0289 *)
let fig6_exponential =
  {
    Farm.servers = 10;
    lambda = 8.5;
    mu = 1.0;
    operative = D.exponential ~rate:0.0289;
    inoperative = D.exponential ~rate:0.2;
    repair_crews = None;
  }

(* ... with deterministic operative periods (C² = 0), which only the
   simulator can solve *)
let fig6 =
  { fig6_exponential with operative = D.deterministic (D.mean fig6_exponential.operative) }

(* Measured time units per replication. Fig. 6's queue is about three
   times deeper, so it runs twice as long. *)
let models = [| ("fig8", fig8, 4_000.0); ("fig6", fig6, 8_000.0) |]

(* A round asks Fig. 8 twice and Fig. 6 once, which puts the median
   call on the H2 model. *)
let round = [| 0; 0; 1 |]

let round_kinds = [ ("fig8", 2); ("fig6", 1) ]

let exact_mean_jobs (cfg : Farm.config) =
  let m =
    Urs.Model.create ~servers:cfg.servers ~arrival_rate:cfg.lambda ~service_rate:cfg.mu
      ~operative:cfg.operative ~inoperative:cfg.inoperative ()
  in
  (Urs.Solver.evaluate_exn m).Urs.Solver.mean_jobs

(* Fig. 8's estimate must cover the exact L within 4 half-widths; the
   C² = 0 interval must not lie wholly above the exact C² = 1 value
   (Fig. 6's monotonicity, stated so sampling noise cannot fail it) *)
let exact8 = lazy (exact_mean_jobs fig8)
let exact6 = lazy (exact_mean_jobs fig6_exponential)

let check name (s : Urs_sim.Replicate.summary) =
  let i = s.Urs_sim.Replicate.mean_jobs in
  match name with
  | "fig8" -> abs_float (i.estimate -. Lazy.force exact8) <= 4.0 *. i.half_width
  | _ -> i.estimate -. i.half_width <= Lazy.force exact6

let replicate ~seed ~duration cfg = Urs_sim.Replicate.run ~seed ~duration cfg

let run ~seed ~seconds ~overhead =
  let st = Common.rng ~seed "simulate" in
  (* the reference kernel, before the first call and after each *)
  let refs = ref [] in
  let latencies = ref [] and kinds = ref [] in
  let results = ref [] and ci_rel = ref 0.0 in
  Common.ready ();
  let start = Common.now () in
  refs := [ Calib.reference_ms () ];
  let last = ref 0.0 and n = ref 0 in
  (* at least one round, and one of each kind when measuring overhead *)
  let min_rounds = if overhead then 2 else 1 in
  while !n < min_rounds || Common.now () -. start +. (0.5 *. !last) < seconds do
    let traced = overhead && !n mod 2 = 1 in
    if traced then Urs_obs.Span.set_tracing true;
    let t0 = Common.now () in
    Array.iter
      (fun i ->
        let name, cfg, duration = models.(i) in
        let seed = Random.State.bits st in
        let s, dt =
          Common.time (fun () ->
              if traced then Tracing.span "replicate" (fun () -> replicate ~seed ~duration cfg)
              else replicate ~seed ~duration cfg)
        in
        latencies := dt *. 1000.0 :: !latencies;
        refs := Calib.reference_ms () :: !refs;
        kinds := ((if traced then "traced " else "") ^ name) :: !kinds;
        let i = s.Urs_sim.Replicate.mean_jobs in
        ci_rel := Float.max !ci_rel (i.half_width /. i.estimate);
        results := (name, s) :: !results)
      round;
    if traced then begin
      ignore (Tracing.harvest ());
      Urs_obs.Span.set_tracing false
    end;
    last := Common.now () -. t0;
    incr n
  done;
  let rss = Option.value ~default:nan (Common.peak_rss_mib ()) in
  (* output checks run after the measured phase *)
  let oks = List.rev_map (fun (name, s) -> check name s) !results in
  let problems =
    List.filter_map
      (fun ((name, s), ok) ->
        if ok then None
        else
          let i = s.Urs_sim.Replicate.mean_jobs in
          Some (Json.String (Printf.sprintf "%s: L = %g ± %g fails its check" name i.estimate i.half_width)))
      (List.combine (List.rev !results) oks)
  in
  Common.emit
    [
      ("latencies_ms", Common.floats (List.rev !latencies));
      ("reference_ms", Common.floats (List.rev !refs));
      ("kinds", Json.List (List.rev_map (fun k -> Json.String k) !kinds));
      ("round", Common.counts round_kinds);
      ("ok", Json.List (List.map (fun b -> Json.Bool b) oks));
      ("attempted", Json.Int (List.length !results));
      ("failed", Json.Int (List.length problems));
      ("problems", Json.List problems);
      ("ci_rel", Json.Float !ci_rel);
      ("peak_rss_mb", Json.Float rss);
      ("self_times", Tracing.self_times ());
    ]
