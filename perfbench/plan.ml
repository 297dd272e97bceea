(* The plan workload: the paper's §4 capacity-planning questions, asked
   through the library calls behind urs optimize, urs capacity and
   urs solve. The spectral kernels do nearly all of the work. *)

module Json = Urs_obs.Json
module Solver = Urs.Solver

let paper = Urs.Doctor.paper_model

let availability =
  let up = Urs_prob.Distribution.mean Urs.Model.paper_operative
  and down = Urs_prob.Distribution.mean Urs.Model.paper_inoperative_exp in
  up /. (up +. down)

(* arrival rate giving [load] = λ / (N · availability), with µ = 1 *)
let lambda_at ~servers load = load *. float servers *. availability

type question =
  | Optimize of float * int  (** λ and the expected N* of Fig. 5 *)
  | Capacity of float * int  (** λ and the expected N of Fig. 9 (W ≤ 1.5) *)
  | Compare of float  (** load at N = 10, exact vs approximate (Fig. 8) *)
  | Exact of int * float  (** N and load *)

let anchors =
  [ Optimize (7.0, 11); Optimize (8.0, 12); Optimize (8.5, 13); Capacity (7.5, 9) ]

(* Every round asks each N of 8..17 (s = 45..171 modes) once and twelve
   Fig. 8 loads, one from each twelfth of [0.89, 0.99], so every seed
   does the same solver work; the seed draws the loads and the order.
   The twelve N = 10 comparisons are the round's middle, which puts
   p50 on them and the tail on the large-N solves. *)
let round st =
  let compares =
    List.init 12 (fun i ->
        let lo = 0.89 +. (0.01 /. 1.2 *. float i) in
        Compare (Common.uniform st lo (lo +. (0.01 /. 1.2))))
  in
  let exacts = List.init 10 (fun i -> Exact (8 + i, Common.uniform st 0.6 0.95)) in
  let qs = Array.of_list (compares @ exacts) in
  Common.shuffle st qs;
  qs

let max_residual = 1e-10

(* the residual of the last successful spectral solve *)
let residual () =
  Option.value ~default:infinity
    (Urs_obs.Metrics.value ~labels:[ ("strategy", "exact") ] "urs_spectral_residual")

type outcome = {
  ok : bool;
  resid : float option;
  error : (float * float) option;  (** load and relative approximation error *)
}

let fail = { ok = false; resid = None; error = None }

let ask = function
  | Optimize (lambda, expect) -> (
      match Urs.Cost.optimal_servers (paper ~servers:10 ~lambda) Urs.Cost.paper_params with
      | Ok (n, _) -> { fail with ok = n = expect }
      | Error _ -> fail)
  | Capacity (lambda, expect) -> (
      match Urs.Capacity.min_servers_for_response (paper ~servers:1 ~lambda) ~target:1.5 with
      | Ok (n, _) -> { fail with ok = n = expect }
      | Error _ -> fail)
  | Compare load -> (
      let m = paper ~servers:10 ~lambda:(lambda_at ~servers:10 load) in
      match Solver.evaluate m with
      | Error _ -> fail
      | Ok e -> (
          let r = residual () in
          match Solver.evaluate ~strategy:Solver.Approximate m with
          | Error _ -> fail
          | Ok a ->
              let err = abs_float (a.Solver.mean_jobs -. e.Solver.mean_jobs) /. e.Solver.mean_jobs in
              { ok = r <= max_residual; resid = Some r; error = Some (load, err) }))
  | Exact (servers, load) -> (
      match Solver.evaluate (paper ~servers ~lambda:(lambda_at ~servers load)) with
      | Error _ -> fail
      | Ok _ ->
          let r = residual () in
          { ok = r <= max_residual; resid = Some r; error = None })

let label = function
  | Optimize (l, _) -> Printf.sprintf "optimize lambda=%g" l
  | Capacity (l, _) -> Printf.sprintf "capacity lambda=%g" l
  | Compare load -> Printf.sprintf "compare load=%.4f" load
  | Exact (n, load) -> Printf.sprintf "exact N=%d load=%.4f" n load

(* Questions of one kind do the same solver work whatever their load,
   so run.py can take each kind's median over a run. *)
let kind = function
  | Optimize _ -> "optimize"
  | Capacity _ -> "capacity"
  | Compare _ -> "compare"
  | Exact (n, _) -> Printf.sprintf "exact N=%d" n

(* how many questions of each kind one round asks *)
let round_kinds =
  ("compare", 12) :: List.init 10 (fun i -> (Printf.sprintf "exact N=%d" (8 + i), 1))

(* Asks the anchors once, then runs rounds for about [seconds]. With
   [overhead], rounds alternate between tracing off and on, the traced
   rounds' spans are kept and their questions' kinds say "traced". *)
let run ~seed ~seconds ~overhead =
  let st = Common.rng ~seed "plan" in
  let latencies = ref [] and kinds = ref [] and oks = ref [] in
  (* the reference kernel, before the first question and after each *)
  let refs = ref [] in
  let reference () = refs := Calib.reference_ms () :: !refs in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let worst_resid = ref 0.0 in
  let problem msg =
    incr failed;
    if List.length !problems < 10 then problems := msg :: !problems
  in
  let errors = ref [] in
  let ask_all ~traced qs =
    Array.iter
      (fun q ->
        let o, dt =
          Common.time (fun () ->
              if traced then Tracing.span "question" (fun () -> ask q) else ask q)
        in
        incr attempted;
        latencies := dt *. 1000.0 :: !latencies;
        reference ();
        kinds := ((if traced then "traced " else "") ^ kind q) :: !kinds;
        oks := o.ok :: !oks;
        Option.iter (fun r -> worst_resid := Float.max !worst_resid r) o.resid;
        Option.iter (fun e -> errors := e :: !errors) o.error;
        if not o.ok then problem (label q ^ ": wrong or failed answer"))
      qs
  in
  Common.ready ();
  let start = Common.now () in
  reference ();
  ask_all ~traced:false (Array.of_list anchors);
  let last = ref 0.0 and n = ref 0 in
  (* at least one round, and one of each kind when measuring overhead *)
  let min_rounds = if overhead then 2 else 1 in
  while !n < min_rounds || Common.now () -. start +. (0.5 *. !last) < seconds do
    let traced = overhead && !n mod 2 = 1 in
    if traced then Urs_obs.Span.set_tracing true;
    errors := [];
    let (), dt = Common.time (fun () -> ask_all ~traced (round st)) in
    if traced then begin
      ignore (Tracing.harvest ());
      Urs_obs.Span.set_tracing false
    end;
    (* Fig. 8: the approximation's error falls as the load rises *)
    let rec falling = function
      | (_, a) :: ((_, b) :: _ as rest) -> b <= a && falling rest
      | _ -> true
    in
    if not (falling (List.sort compare !errors)) then
      problem "approximation error does not fall with load";
    last := dt;
    incr n
  done;
  Common.emit
    [
      ("latencies_ms", Common.floats (List.rev !latencies));
      ("reference_ms", Common.floats (List.rev !refs));
      ("kinds", Json.List (List.rev_map (fun k -> Json.String k) !kinds));
      ("round", Common.counts round_kinds);
      ("ok", Json.List (List.rev_map (fun b -> Json.Bool b) !oks));
      ("attempted", Json.Int !attempted);
      ("failed", Json.Int !failed);
      ("problems", Json.List (List.rev_map (fun s -> Json.String s) !problems));
      ("max_residual", Json.Float !worst_resid);
      ("peak_rss_mb", Json.Float (Option.value ~default:nan (Common.peak_rss_mib ())));
      ("self_times", Tracing.self_times ());
    ]
